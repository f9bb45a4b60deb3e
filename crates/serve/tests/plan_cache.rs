//! The plan cache over HTTP, byte for byte: a hit writes the verified
//! miss's body with only `"cached": false` turned to `"cached": true`,
//! an invalidated entry re-plans to the same bytes, and degraded answers
//! never enter the cache.

use ap_json::{Json, ToJson};
use ap_serve::api::KNOWN_MODELS;
use ap_serve::client::{Client, Response};
use ap_serve::{spawn, ServeConfig};

fn plan(c: &mut Client, model: &str, schedule: &str, deadline_ms: Option<u64>) -> Response {
    let mut fields = vec![("model", model.to_json()), ("schedule", schedule.to_json())];
    if let Some(ms) = deadline_ms {
        fields.push(("planner", Json::obj(vec![("deadline_ms", ms.to_json())])));
    }
    let r = c
        .request("POST", "/plan", Some(&Json::obj(fields)))
        .unwrap();
    assert_eq!(r.status, 200, "{model}/{schedule}");
    r
}

fn text(r: &Response) -> &str {
    std::str::from_utf8(&r.body).expect("UTF-8 body")
}

fn flag(r: &Response, key: &str) -> Option<bool> {
    r.json().and_then(|j| j.get(key).and_then(Json::as_bool))
}

#[test]
fn hits_replay_the_miss_bytes_and_degraded_answers_are_never_cached() {
    let mut handle = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut c = Client::connect(handle.addr()).unwrap();
    for &model in KNOWN_MODELS {
        for schedule in ["pipedream_async", "dapple"] {
            let at = format!("{model}/{schedule}");
            // A zero budget degrades; were it cached, the next request
            // for the same key would be a hit.
            let degraded = plan(&mut c, model, schedule, Some(0));
            assert_eq!(flag(&degraded, "degraded"), Some(true), "{at}");
            assert_eq!(flag(&degraded, "cached"), Some(false), "{at}");

            let miss = plan(&mut c, model, schedule, None);
            assert_eq!(flag(&miss, "degraded"), Some(false), "{at}");
            assert_eq!(
                flag(&miss, "cached"),
                Some(false),
                "{at}: degraded answer was cached"
            );
            let miss_text = text(&miss);
            assert_eq!(
                miss_text.matches("\"cached\": false").count(),
                1,
                "{at}: one cached flag"
            );
            let expected_hit = miss_text.replacen("\"cached\": false", "\"cached\": true", 1);
            for _ in 0..2 {
                let hit = plan(&mut c, model, schedule, None);
                assert_eq!(text(&hit), expected_hit, "{at}: hit body");
            }

            let r = c.request("POST", "/invalidate", None).unwrap();
            assert_eq!(r.status, 200);
            let again = plan(&mut c, model, schedule, None);
            assert_eq!(text(&again), miss_text, "{at}: re-planned miss body");
        }
    }
    handle.shutdown();
}

#[test]
fn an_unknown_model_gets_the_same_422_from_every_endpoint() {
    let expected = r#"{
  "error": {
    "status": 422,
    "kind": "unknown-model",
    "message": "unknown model \"vgg9000\"; known: alexnet, vgg16, resnet50, resnet101, resnet152, bert12, bert24, bert48, gpt2-small, gpt2-medium"
  }
}"#;
    let mut handle = spawn(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let mut c = Client::connect(handle.addr()).unwrap();
    let bodies = [
        ("/plan", r#"{"model": "vgg9000"}"#),
        (
            "/simulate",
            r#"{"model": "vgg9000", "partition": {"stages": [{"layers": [0, 1], "workers": [0]}]}}"#,
        ),
        ("/jobs", r#"{"model": "vgg9000", "gpus": 2}"#),
        (
            "/jobs",
            r#"{"model": "vgg9000", "gpus": 2, "batch_size": 8}"#,
        ),
    ];
    for (path, body) in bodies {
        let r = c
            .request("POST", path, Some(&ap_json::parse(body).unwrap()))
            .unwrap();
        assert_eq!(r.status, 422, "{path} {body}");
        assert_eq!(text(&r), expected, "{path} {body}");
    }
    handle.shutdown();
}
