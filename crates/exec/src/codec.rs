//! Wire format for inter-stage frames.
//!
//! Everything a stage sends — activations, gradients, and the three
//! migration frame kinds — is serialized to a flat little-endian byte
//! buffer before it enters a channel and decoded on the far side. The
//! runtime's transfer-byte numbers are the lengths of these buffers, so
//! they are *measured off the wire*, not modeled. f64 payloads travel as
//! raw IEEE-754 bit patterns: a round trip is bit-exact, which the
//! runtime's determinism guarantees rely on.

use ap_nn::{ActKind, Matrix};

/// One layer's weights on the wire: weight matrix, bias row, and the
/// activation applied after the layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerBlob {
    /// Weight matrix (`d_in x d_out`).
    pub w: Matrix,
    /// Bias row (`1 x d_out`).
    pub b: Matrix,
    /// Activation kind after this layer.
    pub act: ActKind,
}

/// A frame traveling between two pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Forward activation of mini-batch `mb` entering the receiver's
    /// lowest layer.
    Act {
        /// Mini-batch id.
        mb: u64,
        /// Activation tensor (`batch x width`).
        data: Matrix,
    },
    /// Backward gradient of mini-batch `mb` w.r.t. the input of the
    /// sender's lowest layer.
    Grad {
        /// Mini-batch id.
        mb: u64,
        /// Gradient tensor (`batch x width`).
        data: Matrix,
    },
    /// The latest (master) copy of a migrating layer block. Sent first in
    /// a live switch so the new owner can forward new mini-batches
    /// immediately. `pending` lists the in-flight mini-batch ids whose
    /// updates for this block will follow as [`Frame::Delta`]s, in order.
    Master {
        /// Global index of the first migrated layer.
        first_layer: u32,
        /// The migrated layers, bottom-up.
        layers: Vec<LayerBlob>,
        /// Sorted in-flight mini-batch ids still owing updates.
        pending: Vec<u64>,
    },
    /// One stashed weight version of the migrating block, plus the input
    /// activation that version's forward consumed (so the receiver can
    /// rebuild backward state by recomputation). Sent newest-first —
    /// "migrating the weight copy of later active mini-batch first".
    Stash {
        /// Mini-batch id the version belongs to.
        mb: u64,
        /// Global index of the first migrated layer.
        first_layer: u32,
        /// The stashed layer copies, bottom-up.
        layers: Vec<LayerBlob>,
        /// Cached input of the first migrated layer for this mini-batch.
        input: Matrix,
    },
    /// Parameter update for the migrated block computed at the *old*
    /// owner for an in-flight mini-batch; applied by the new owner in
    /// mini-batch order.
    Delta {
        /// Mini-batch id the update belongs to.
        mb: u64,
        /// Global index of the first migrated layer.
        first_layer: u32,
        /// Per-layer (dW, db) pairs, bottom-up.
        grads: Vec<(Matrix, Matrix)>,
    },
}

impl Frame {
    /// Short label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Act { .. } => "act",
            Frame::Grad { .. } => "grad",
            Frame::Master { .. } => "master",
            Frame::Stash { .. } => "stash",
            Frame::Delta { .. } => "delta",
        }
    }

    /// Drop a sent frame, handing an activation or gradient tensor to
    /// this thread's recycled buffers ([`Matrix::recycle`]).
    pub fn recycle(self) {
        if let Frame::Act { data, .. } | Frame::Grad { data, .. } = self {
            data.recycle();
        }
    }
}

const TAG_ACT: u8 = 0;
const TAG_GRAD: u8 = 1;
const TAG_MASTER: u8 = 2;
const TAG_STASH: u8 = 3;
const TAG_DELTA: u8 = 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `vals` as little-endian IEEE-754 bit patterns.
fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    #[cfg(target_endian = "little")]
    {
        // On a little-endian host the in-memory representation *is* the
        // wire representation, so the whole payload is one memcpy. Sound:
        // any f64 slice is valid to reinterpret as bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
        };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        out.reserve(vals.len() * 8);
        for &v in vals {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Decode a little-endian f64 payload into `out`, which holds
/// `raw.len() / 8` values.
fn f64s_from_le(raw: &[u8], out: &mut [f64]) {
    assert_eq!(raw.len(), out.len() * 8, "payload/destination mismatch");
    #[cfg(target_endian = "little")]
    // Sound: the lengths match, the source is plain bytes, and every bit
    // pattern is a valid f64.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr().cast::<u8>(), raw.len());
    }
    #[cfg(not(target_endian = "little"))]
    for (v, c) in out.iter_mut().zip(raw.chunks_exact(8)) {
        *v = f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()));
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    put_f64s(out, m.data());
}

fn act_tag(k: ActKind) -> u8 {
    match k {
        ActKind::Relu => 0,
        ActKind::Tanh => 1,
        ActKind::Sigmoid => 2,
        ActKind::Identity => 3,
    }
}

fn put_layers(out: &mut Vec<u8>, layers: &[LayerBlob]) {
    put_u32(out, layers.len() as u32);
    for l in layers {
        out.push(act_tag(l.act));
        put_matrix(out, &l.w);
        put_matrix(out, &l.b);
    }
}

/// Serialize a frame to wire bytes.
pub fn encode(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(f, &mut out);
    out
}

/// Serialize a frame into a caller-provided buffer, reusing its
/// capacity. The buffer is cleared first; after the call it holds
/// exactly the wire bytes [`encode`] would have produced. Steady-state
/// 1F1B sends use this with recycled channel buffers so no per-frame
/// allocation happens once capacities have warmed up.
pub fn encode_into(f: &Frame, out: &mut Vec<u8>) {
    out.clear();
    match f {
        Frame::Act { mb, data } => {
            out.push(TAG_ACT);
            put_u64(out, *mb);
            put_matrix(out, data);
        }
        Frame::Grad { mb, data } => {
            out.push(TAG_GRAD);
            put_u64(out, *mb);
            put_matrix(out, data);
        }
        Frame::Master {
            first_layer,
            layers,
            pending,
        } => {
            out.push(TAG_MASTER);
            put_u32(out, *first_layer);
            put_layers(out, layers);
            put_u32(out, pending.len() as u32);
            for &p in pending {
                put_u64(out, p);
            }
        }
        Frame::Stash {
            mb,
            first_layer,
            layers,
            input,
        } => {
            out.push(TAG_STASH);
            put_u64(out, *mb);
            put_u32(out, *first_layer);
            put_layers(out, layers);
            put_matrix(out, input);
        }
        Frame::Delta {
            mb,
            first_layer,
            grads,
        } => {
            out.push(TAG_DELTA);
            put_u64(out, *mb);
            put_u32(out, *first_layer);
            put_u32(out, grads.len() as u32);
            for (dw, db) in grads {
                put_matrix(out, dw);
                put_matrix(out, db);
            }
        }
    }
}

/// A matrix parsed off the wire but not yet materialized: shape plus a
/// borrowed view of the raw payload bytes inside the receive buffer.
/// [`MatrixView::to_matrix`] materializes it into one (recycled) buffer
/// with one bulk little-endian conversion (a memcpy on LE hosts), instead
/// of the per-element chunking the eager decoder used to do.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    raw: &'a [u8],
}

impl MatrixView<'_> {
    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Materialize into an owned matrix, bit-exactly. Its storage comes
    /// from this thread's recycled buffers ([`Matrix::scratch`]) when one
    /// is free.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::scratch(self.rows, self.cols);
        f64s_from_le(self.raw, m.data_mut());
        m
    }
}

/// A decoded frame whose hot-path payloads still borrow the receive
/// buffer. `Act` and `Grad` — the only per-mini-batch frames — carry
/// [`MatrixView`]s so the receiver decides when (and into what) to
/// materialize; the rare migration control frames (`Master`, `Stash`,
/// `Delta`, sent only during a live switch) are decoded eagerly.
#[derive(Debug)]
pub enum FrameView<'a> {
    /// Borrowed view of an activation frame.
    Act {
        /// Mini-batch id.
        mb: u64,
        /// Borrowed activation payload.
        data: MatrixView<'a>,
    },
    /// Borrowed view of a gradient frame.
    Grad {
        /// Mini-batch id.
        mb: u64,
        /// Borrowed gradient payload.
        data: MatrixView<'a>,
    },
    /// An eagerly-decoded migration control frame.
    Control(Frame),
}

impl FrameView<'_> {
    /// Short label for diagnostics, matching [`Frame::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            FrameView::Act { .. } => "act",
            FrameView::Grad { .. } => "grad",
            FrameView::Control(f) => f.kind(),
        }
    }

    /// Materialize into an owned [`Frame`]; bit-identical to [`decode`].
    pub fn to_frame(self) -> Frame {
        match self {
            FrameView::Act { mb, data } => Frame::Act {
                mb,
                data: data.to_matrix(),
            },
            FrameView::Grad { mb, data } => Frame::Grad {
                mb,
                data: data.to_matrix(),
            },
            FrameView::Control(f) => f,
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn matrix_view(&mut self) -> Result<MatrixView<'a>, String> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| "matrix size overflow".to_string())?;
        let raw = self.take(n * 8)?;
        Ok(MatrixView { rows, cols, raw })
    }

    fn matrix(&mut self) -> Result<Matrix, String> {
        Ok(self.matrix_view()?.to_matrix())
    }

    fn act(&mut self) -> Result<ActKind, String> {
        match self.u8()? {
            0 => Ok(ActKind::Relu),
            1 => Ok(ActKind::Tanh),
            2 => Ok(ActKind::Sigmoid),
            3 => Ok(ActKind::Identity),
            t => Err(format!("unknown activation tag {t}")),
        }
    }

    fn layers(&mut self) -> Result<Vec<LayerBlob>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let act = self.act()?;
            let w = self.matrix()?;
            let b = self.matrix()?;
            out.push(LayerBlob { w, b, act });
        }
        Ok(out)
    }
}

/// Decode wire bytes into a borrowed [`FrameView`]: the hot-path frame
/// kinds (`Act`, `Grad`) keep their payload as a view over `buf`, so the
/// caller can recycle the buffer after materializing — or skip
/// materializing entirely when only the header matters.
pub fn decode_view(buf: &[u8]) -> Result<FrameView<'_>, String> {
    let mut r = Reader { buf, pos: 0 };
    let view = match r.u8()? {
        TAG_ACT => FrameView::Act {
            mb: r.u64()?,
            data: r.matrix_view()?,
        },
        TAG_GRAD => FrameView::Grad {
            mb: r.u64()?,
            data: r.matrix_view()?,
        },
        _ => return decode(buf).map(FrameView::Control),
    };
    if r.pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} bytes after frame",
            buf.len() - r.pos
        ));
    }
    Ok(view)
}

/// Decode wire bytes back into a frame.
pub fn decode(buf: &[u8]) -> Result<Frame, String> {
    let mut r = Reader { buf, pos: 0 };
    let frame = match r.u8()? {
        TAG_ACT => Frame::Act {
            mb: r.u64()?,
            data: r.matrix()?,
        },
        TAG_GRAD => Frame::Grad {
            mb: r.u64()?,
            data: r.matrix()?,
        },
        TAG_MASTER => {
            let first_layer = r.u32()?;
            let layers = r.layers()?;
            let n = r.u32()? as usize;
            let mut pending = Vec::with_capacity(n);
            for _ in 0..n {
                pending.push(r.u64()?);
            }
            Frame::Master {
                first_layer,
                layers,
                pending,
            }
        }
        TAG_STASH => Frame::Stash {
            mb: r.u64()?,
            first_layer: r.u32()?,
            layers: r.layers()?,
            input: r.matrix()?,
        },
        TAG_DELTA => {
            let mb = r.u64()?;
            let first_layer = r.u32()?;
            let n = r.u32()? as usize;
            let mut grads = Vec::with_capacity(n);
            for _ in 0..n {
                let dw = r.matrix()?;
                let db = r.matrix()?;
                grads.push((dw, db));
            }
            Frame::Delta {
                mb,
                first_layer,
                grads,
            }
        }
        t => return Err(format!("unknown frame tag {t}")),
    };
    if r.pos != buf.len() {
        return Err(format!(
            "trailing garbage: {} bytes after frame",
            buf.len() - r.pos
        ));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::xavier(rows, cols, seed)
    }

    #[test]
    fn every_frame_kind_round_trips_bit_exactly() {
        let frames = vec![
            Frame::Act {
                mb: 7,
                data: m(4, 3, 1),
            },
            Frame::Grad {
                mb: u64::MAX,
                data: m(1, 1, 2),
            },
            Frame::Master {
                first_layer: 3,
                layers: vec![
                    LayerBlob {
                        w: m(3, 2, 3),
                        b: m(1, 2, 4),
                        act: ActKind::Tanh,
                    },
                    LayerBlob {
                        w: m(2, 5, 5),
                        b: m(1, 5, 6),
                        act: ActKind::Identity,
                    },
                ],
                pending: vec![11, 12, 13],
            },
            Frame::Stash {
                mb: 12,
                first_layer: 0,
                layers: vec![LayerBlob {
                    w: m(2, 2, 7),
                    b: m(1, 2, 8),
                    act: ActKind::Relu,
                }],
                input: m(4, 2, 9),
            },
            Frame::Delta {
                mb: 9,
                first_layer: 1,
                grads: vec![(m(3, 3, 10), m(1, 3, 11))],
            },
        ];
        for f in frames {
            let bytes = encode(&f);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", f.kind()));
            assert_eq!(back, f, "{} frame drifted through the codec", f.kind());
        }
    }

    #[test]
    fn special_f64_values_survive() {
        let data = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-308, -1.5];
        let f = Frame::Act {
            mb: 0,
            data: Matrix::from_vec(2, 3, data.clone()),
        };
        if let Frame::Act { data: d, .. } = decode(&encode(&f)).unwrap() {
            for (a, b) in d.data().iter().zip(&data) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        } else {
            panic!("wrong frame kind");
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err());
        let mut good = encode(&Frame::Act {
            mb: 1,
            data: m(2, 2, 1),
        });
        good.truncate(good.len() - 3);
        assert!(decode(&good).is_err());
        let mut trailing = encode(&Frame::Grad {
            mb: 1,
            data: m(2, 2, 1),
        });
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Act {
                mb: 7,
                data: m(4, 3, 21),
            },
            Frame::Grad {
                mb: 8,
                data: m(3, 4, 22),
            },
            Frame::Master {
                first_layer: 2,
                layers: vec![LayerBlob {
                    w: m(3, 2, 23),
                    b: m(1, 2, 24),
                    act: ActKind::Sigmoid,
                }],
                pending: vec![5, 6],
            },
            Frame::Stash {
                mb: 5,
                first_layer: 2,
                layers: vec![LayerBlob {
                    w: m(3, 2, 25),
                    b: m(1, 2, 26),
                    act: ActKind::Relu,
                }],
                input: m(4, 3, 27),
            },
            Frame::Delta {
                mb: 6,
                first_layer: 2,
                grads: vec![(m(3, 2, 28), m(1, 2, 29))],
            },
        ]
    }

    #[test]
    fn decode_view_round_trips_every_frame_kind() {
        for f in sample_frames() {
            let bytes = encode(&f);
            let view = decode_view(&bytes).unwrap_or_else(|e| panic!("{}: {e}", f.kind()));
            assert_eq!(view.kind(), f.kind());
            // Hot-path kinds must take the borrowed path, not Control.
            match (&view, &f) {
                (FrameView::Act { data, .. }, Frame::Act { data: d, .. })
                | (FrameView::Grad { data, .. }, Frame::Grad { data: d, .. }) => {
                    assert_eq!((data.rows(), data.cols()), (d.rows(), d.cols()));
                }
                (FrameView::Control(_), Frame::Master { .. })
                | (FrameView::Control(_), Frame::Stash { .. })
                | (FrameView::Control(_), Frame::Delta { .. }) => {}
                other => panic!("unexpected view/frame pairing: {other:?}"),
            }
            assert_eq!(view.to_frame(), f, "{} view drifted", f.kind());
        }
    }

    #[test]
    fn decode_view_rejects_corrupt_input_like_decode() {
        assert!(decode_view(&[]).is_err());
        assert!(decode_view(&[99]).is_err());
        let mut bytes = encode(&Frame::Act {
            mb: 1,
            data: m(2, 2, 1),
        });
        bytes.push(0);
        assert!(decode_view(&bytes).is_err(), "trailing garbage accepted");
        bytes.truncate(bytes.len() - 4);
        assert!(decode_view(&bytes).is_err(), "truncated frame accepted");
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_capacity() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        // Warm the buffer on the largest frame first.
        let largest = frames
            .iter()
            .max_by_key(|f| encode(f).len())
            .unwrap()
            .clone();
        encode_into(&largest, &mut buf);
        let warmed = buf.capacity();
        for f in &frames {
            encode_into(f, &mut buf);
            assert_eq!(buf, encode(f), "{}: encode_into drifted", f.kind());
            assert_eq!(buf.capacity(), warmed, "{}: buffer reallocated", f.kind());
        }
    }

    #[test]
    fn act_frame_payload_size_is_predictable() {
        // tag + mb + rows + cols + 8 bytes per element: the experiment
        // layer's byte accounting depends on this exact layout.
        let f = Frame::Act {
            mb: 3,
            data: m(4, 5, 2),
        };
        assert_eq!(encode(&f).len(), 1 + 8 + 4 + 4 + 4 * 5 * 8);
    }
}
