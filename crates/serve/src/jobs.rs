//! `POST /jobs`, `DELETE /jobs/{id}`, `GET /schedule`: the serving face
//! of the cluster control plane ([`ap_sched`]).
//!
//! This module owns request validation and response shaping; the daemon
//! ([`crate::server`]) owns the scheduler lock, event timestamps and
//! metric observation. Error discipline matches the rest of the API:
//! malformed content is 400, well-formed-but-impossible is 422, an
//! unknown job id is 404, and a typed admission rejection is **409** —
//! the request was fine, the cluster can simply never host it.

use ap_json::{Json, ToJson};
use ap_models::ModelProfile;
use ap_sched::{AdmitOutcome, ClusterScheduler, EventOutcome, JobId, JobRequest, RejectReason};

use crate::api::{model_by_name, model_field, zoo_profile, ApiError, GIB};

/// Largest accepted batch size.
const MAX_BATCH: usize = 4096;

/// Parse and validate a `POST /jobs` body.
///
/// Required: `"model"` (a [`crate::api::KNOWN_MODELS`] name) and
/// `"gpus"` (non-negative integer — zero is *well-formed* and rejected by
/// the scheduler with a typed 409, not a parse error). Optional:
/// `"adaptive"` (bool, default `true`), `"name"` (string, default the
/// model name), `"batch_size"` (integer in `[1, 4096]`, default the
/// model's).
pub fn parse_submit(v: &Json) -> Result<JobRequest, ApiError> {
    if v.as_obj().is_none() {
        return Err(ApiError::bad_request(
            "bad-body",
            "request body must be a JSON object",
        ));
    }
    let model = model_field(v)?;
    let gpus = v
        .get("gpus")
        .ok_or_else(|| ApiError::bad_request("missing-field", "request needs a \"gpus\" count"))?
        .as_usize()
        .ok_or_else(|| ApiError::bad_request("bad-field", "gpus must be a non-negative integer"))?;
    let adaptive = match v.get("adaptive") {
        None | Some(Json::Null) => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => {
            return Err(ApiError::bad_request(
                "bad-field",
                "adaptive must be a boolean",
            ))
        }
    };
    let name = match v.get("name") {
        None | Some(Json::Null) => model.to_string(),
        Some(j) => j
            .as_str()
            .ok_or_else(|| ApiError::bad_request("bad-field", "name must be a string"))?
            .to_string(),
    };
    let profile = match v.get("batch_size") {
        None | Some(Json::Null) => zoo_profile(model).expect("model validated above").clone(),
        Some(j) => {
            let b = j.as_usize().ok_or_else(|| {
                ApiError::bad_request("bad-field", "batch_size must be a non-negative integer")
            })?;
            if b == 0 || b > MAX_BATCH {
                return Err(ApiError::unprocessable(
                    "out-of-range",
                    format!("batch_size must be in [1, {MAX_BATCH}], got {b}"),
                ));
            }
            let desc = model_by_name(model).expect("model validated above");
            ModelProfile::with_batch(&desc, b)
        }
    };
    Ok(JobRequest {
        name,
        profile,
        gpus,
        adaptive,
    })
}

/// Parse the `{id}` path segment of `DELETE /jobs/{id}`.
pub fn parse_job_id(id_str: &str) -> Result<JobId, ApiError> {
    id_str.parse::<u64>().map(JobId).map_err(|_| {
        ApiError::bad_request(
            "bad-job-id",
            format!("job id must be an unsigned integer, got {id_str:?}"),
        )
    })
}

fn reject_error(reason: RejectReason) -> ApiError {
    let message = match reason {
        RejectReason::ZeroGpus => "a job needs at least one GPU".to_string(),
        RejectReason::LargerThanCluster { wanted, cluster } => {
            format!("requested {wanted} GPUs but the cluster has {cluster}")
        }
        RejectReason::MemoryInfeasible { deficit_bytes } => {
            format!(
                "no in-flight depth fits device memory; worst stage over by {:.2} GiB at depth 1",
                deficit_bytes as f64 / GIB
            )
        }
    };
    ApiError {
        status: 409,
        kind: reason.id().to_string(),
        message,
        detail: None,
    }
}

fn replan_json(out: &EventOutcome) -> Json {
    Json::obj(vec![
        ("neighborhood", out.replan.neighborhood.to_json()),
        ("considered", out.replan.considered.to_json()),
        ("moved", out.replan.moved.to_json()),
    ])
}

/// Shape the `POST /jobs` response: `(status, body)` on admission
/// (200 placed, 202 queued), a 409 [`ApiError`] on rejection.
pub fn submit_json(out: &EventOutcome, sched: &ClusterScheduler) -> Result<(u16, Json), ApiError> {
    match out.admit.as_ref().expect("arrival events always admit") {
        AdmitOutcome::Placed(id) => {
            let job = sched.job(*id).expect("just placed");
            Ok((
                200,
                Json::obj(vec![
                    ("status", "placed".to_json()),
                    ("id", id.0.to_json()),
                    ("name", job.name.as_str().to_json()),
                    (
                        "gpus",
                        job.partition
                            .all_workers()
                            .iter()
                            .map(|g| g.0)
                            .collect::<Vec<_>>()
                            .to_json(),
                    ),
                    ("stages", job.partition.stages.len().to_json()),
                    ("predicted_throughput", job.predicted.to_json()),
                    ("in_flight", job.partition.in_flight.to_json()),
                    (
                        "memory",
                        Json::Arr(
                            job.mem
                                .stages
                                .iter()
                                .map(|s| {
                                    Json::obj(vec![
                                        ("stage", s.stage.to_json()),
                                        ("required_gb", (s.required / GIB).to_json()),
                                        ("capacity_gb", (s.capacity / GIB).to_json()),
                                        ("fits", s.fits().to_json()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("replan", replan_json(out)),
                ]),
            ))
        }
        AdmitOutcome::Queued(id, reason) => Ok((
            202,
            Json::obj(vec![
                ("status", "queued".to_json()),
                ("id", id.0.to_json()),
                ("reason", reason.id().to_json()),
            ]),
        )),
        AdmitOutcome::Rejected(reason) => Err(reject_error(*reason)),
    }
}

/// Shape the `DELETE /jobs/{id}` response. `was_resident` distinguishes a
/// placed job from one still waiting in the queue.
pub fn delete_json(id: JobId, was_resident: bool, out: &EventOutcome) -> Json {
    Json::obj(vec![
        ("deleted", id.0.to_json()),
        (
            "was",
            if was_resident { "resident" } else { "queued" }.to_json(),
        ),
        (
            "dequeued",
            out.dequeued
                .iter()
                .map(|j| j.0)
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("replan", replan_json(out)),
    ])
}
