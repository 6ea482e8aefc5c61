//! Seeded input generation: a SplitMix64 stream, a Zipf sampler, and
//! DNF formulas rendered to the service's formula syntax. The server
//! only ever sees the text these produce.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// generator never shifts another's.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng(self.next_u64() ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with mean `1 / rate`, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over `0..n` with exponent `s`.
#[derive(Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A DNF over variable indices: cubes of `(var, positive)` literals.
pub type Dnf = Vec<Vec<(usize, bool)>>;

/// A random DNF over `width` variables: `cubes` cubes of `lits`
/// distinct literals each.
pub fn dnf(rng: &mut Rng, width: usize, cubes: usize, lits: usize) -> Dnf {
    (0..cubes)
        .map(|_| {
            let mut vars: Vec<usize> = (0..width).collect();
            rng.shuffle(&mut vars);
            vars.truncate(lits.min(width));
            vars.sort_unstable();
            vars.into_iter().map(|v| (v, rng.below(2) == 0)).collect()
        })
        .collect()
}

/// Add every variable `0..width` missing from both sides to a random
/// cube of `a`, so the query's signature has exactly `width` variables.
pub fn cover(rng: &mut Rng, a: &mut Dnf, b: &Dnf, width: usize) {
    for v in 0..width {
        let seen = a.iter().chain(b.iter()).flatten().any(|&(w, _)| w == v);
        if !seen {
            let c = rng.below(a.len());
            a[c].push((v, rng.below(2) == 0));
            a[c].sort_unstable();
        }
    }
}

/// Render `f` with `names[var]`, in the given cube order (literal order
/// follows each cube's vector order).
pub fn render(f: &Dnf, names: &[String]) -> String {
    f.iter()
        .map(|cube| {
            let lits: Vec<String> = cube
                .iter()
                .map(|&(v, pos)| {
                    if pos {
                        names[v].clone()
                    } else {
                        format!("!{}", names[v])
                    }
                })
                .collect();
            if f.len() > 1 && cube.len() > 1 {
                format!("({})", lits.join(" & "))
            } else {
                lits.join(" & ")
            }
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// An alpha-renamed, syntactically shuffled copy of `f`: same canonical
/// form, different text.
pub fn shuffled(rng: &mut Rng, f: &Dnf) -> Dnf {
    let mut g = f.clone();
    rng.shuffle(&mut g);
    for cube in &mut g {
        rng.shuffle(cube);
    }
    g
}

/// `n` distinct variable names drawn from a larger pool, in random order.
pub fn fresh_names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let mut pool: Vec<String> = (0..(4 * n).max(16))
        .map(|i| format!("{prefix}{i}"))
        .collect();
    rng.shuffle(&mut pool);
    pool.truncate(n);
    pool
}
