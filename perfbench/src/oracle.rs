//! Serial reference outputs for service requests: the segmented sum, the
//! linear-recurrence loop, and the running state of a checkpoint-chained
//! stream. Independent of the service's own code paths.

use sam_service::{ScanKind, ScanRequest};

/// Expected outputs of a non-streaming request.
pub fn expected(request: &ScanRequest) -> Vec<i32> {
    if let Some(coeffs) = &request.recurrence {
        // y_i = b_i + Σ_j c_j·y_{i-1-j}; exclusive outputs are the
        // prediction y_i - b_i.
        let mut hist = vec![0i32; coeffs.len()];
        return request
            .values
            .iter()
            .map(|&b| {
                let pred = coeffs
                    .iter()
                    .zip(&hist)
                    .fold(0i32, |a, (&c, &h)| a.wrapping_add(c.wrapping_mul(h)));
                let y = b.wrapping_add(pred);
                hist.rotate_right(1);
                hist[0] = y;
                match request.kind {
                    ScanKind::Inclusive => y,
                    ScanKind::Exclusive => pred,
                }
            })
            .collect();
    }
    let mut run = 0i32;
    request
        .values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i == 0 || request.heads.get(i).copied().unwrap_or(false) {
                run = 0;
            }
            step(&mut run, request.kind, v)
        })
        .collect()
}

/// One element of a running sum: the inclusive or exclusive output.
fn step(run: &mut i32, kind: ScanKind, v: i32) -> i32 {
    let before = *run;
    *run = run.wrapping_add(v);
    match kind {
        ScanKind::Inclusive => *run,
        ScanKind::Exclusive => before,
    }
}

/// The running sum of one checkpoint-chained stream, carried across its
/// frames.
#[derive(Default, Clone, Copy)]
pub struct StreamOracle {
    sum: i32,
}

impl StreamOracle {
    /// Expected outputs of the stream's next frame, advancing the state.
    pub fn frame(&mut self, kind: ScanKind, values: &[i32]) -> Vec<i32> {
        values
            .iter()
            .map(|&v| step(&mut self.sum, kind, v))
            .collect()
    }
}
