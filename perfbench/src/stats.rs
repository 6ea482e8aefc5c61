//! Order statistics over latency samples.

/// Nearest-rank quantile of `v` (sorted in place), `q` in `[0, 1]`;
/// 0 for an empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// The upper quartile of `v` when higher is better, else the lower one.
pub fn better_quartile(v: &[f64], higher_is_better: bool) -> f64 {
    quantile(&mut v.to_vec(), if higher_is_better { 0.75 } else { 0.25 })
}

/// `part / whole`, 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A closed loop's window cut into fixed time slices: each slice's
/// completion rate and latency quantiles, then each figure's better
/// quartile across slices (the upper quartile of rates, the lower
/// quartile of latencies). The benchmark machine's own slow spells and
/// stalls come and go within a run; this reports what the program does
/// in the quieter quarter of it, so they do not move the figure unless
/// they cover most of the window.
pub struct Sliced {
    pub slices: usize,
    pub rate: f64,
    pub p50: f64,
    pub p99: f64,
    /// The per-slice figures behind the quartiles.
    pub rates: Vec<f64>,
    pub p50s: Vec<f64>,
    pub p99s: Vec<f64>,
}

impl Sliced {
    /// One report line listing every slice.
    pub fn line(&self, what: &str) -> String {
        let r = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "{what} slices: rate [{}] p50 [{}] p99 [{}]",
            r(&self.rates),
            r(&self.p50s),
            r(&self.p99s)
        )
    }
}

/// `done` holds (completion time, latency) of every successful op.
pub fn sliced(
    done: &[(std::time::Instant, f64)],
    start: std::time::Instant,
    secs: f64,
    slice_secs: f64,
) -> Sliced {
    let n = ((secs / slice_secs).floor() as usize).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, lat) in done {
        let k = (t.saturating_duration_since(start).as_secs_f64() / slice_secs) as usize;
        if k < n {
            buckets[k].push(lat);
        }
    }
    let rates: Vec<f64> = buckets
        .iter()
        .map(|b| b.len() as f64 / slice_secs)
        .collect();
    let p50s: Vec<f64> = buckets.iter_mut().map(|b| quantile(b, 0.5)).collect();
    let p99s: Vec<f64> = buckets.iter_mut().map(|b| quantile(b, 0.99)).collect();
    Sliced {
        slices: n,
        rate: better_quartile(&rates, true),
        p50: better_quartile(&p50s, false),
        p99: better_quartile(&p99s, false),
        rates,
        p50s,
        p99s,
    }
}
