//! RNN comparator: a from-scratch LSTM trained with Adam (paper §IV-B2,
//! Appendix B).
//!
//! Matches the paper's architecture: a two-layer LSTM whose hidden size
//! equals the number of input features, followed by a two-layer dense head
//! producing the phytoplankton estimate; inputs standardised; Adam with
//! α = 0.01, β₁ = 0.9, β₂ = 0.999, weight decay 5e-4; MSE loss. Training
//! uses stateful truncated BPTT over fixed windows (the full 10-year
//! sequence is one long stream, as in the original evaluation).
//!
//! Everything — the cell, backpropagation through time, Adam — is
//! implemented here on plain `Vec<f64>` tensors: there is no deep-learning
//! dependency in this workspace.
//!
//! The kernel runs layer-major over each window: a layer's input
//! projection `Wx·x_t` is one batched pass over the window's steps, and
//! only `Wh·h_{t-1}` stays on the per-step recurrent path. The backward
//! pass runs top layer down in reverse time, and weight gradients are
//! accumulated once per window. Every sum keeps the operand order of the
//! textbook per-step formulation (kept in the tests as the reference), so
//! training and prediction are bit-identical to it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows per block of the recurrent matvec: each row keeps its own
/// accumulator, so a block is that many independent add chains.
const ROW_BLOCK: usize = 8;

/// Steps per forward chunk in [`LstmModel::predict`], bounding its
/// temporaries whatever the stream length.
const PREDICT_CHUNK: usize = 64;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct LstmConfig {
    /// Hidden size (0 = the number of input features, at least 4, as in
    /// the paper).
    pub hidden: usize,
    /// Number of stacked LSTM layers.
    pub layers: usize,
    /// Training epochs over the full sequence.
    pub epochs: usize,
    /// Adam step size.
    pub lr: f64,
    /// Decoupled weight decay.
    pub weight_decay: f64,
    /// Truncated-BPTT window length.
    pub window: usize,
    /// Gradient L2 clip per tensor.
    pub clip: f64,
    /// Seed for weight init.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 0,
            layers: 2,
            epochs: 30,
            lr: 0.01,
            weight_decay: 5e-4,
            window: 60,
            clip: 5.0,
            seed: 0,
        }
    }
}

/// A dense parameter tensor with its gradient and Adam state.
#[derive(Debug, Clone)]
struct Tensor {
    w: Vec<f64>,
    g: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    fn new(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        let w = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Tensor {
            w,
            g: vec![0.0; rows * cols],
            m: vec![0.0; rows * cols],
            v: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            w: vec![0.0; rows * cols],
            g: vec![0.0; rows * cols],
            m: vec![0.0; rows * cols],
            v: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// y += W x, [`ROW_BLOCK`] rows at a time. Each row sums its products
    /// in column order into its own accumulator, which is then added
    /// straight into `y`.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        let cols = self.cols;
        let full = self.rows - self.rows % ROW_BLOCK;
        for r0 in (0..full).step_by(ROW_BLOCK) {
            let rows: [&[f64]; ROW_BLOCK] =
                std::array::from_fn(|i| &self.w[(r0 + i) * cols..(r0 + i) * cols + x.len()]);
            let mut acc = [0.0; ROW_BLOCK];
            for (k, xk) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[k] * xk;
                }
            }
            for (yi, a) in y[r0..r0 + ROW_BLOCK].iter_mut().zip(acc) {
                *yi += a;
            }
        }
        for (r, yi) in y.iter_mut().enumerate().skip(full) {
            let mut acc = 0.0;
            for (a, b) in self.w[r * cols..(r + 1) * cols].iter().zip(x) {
                acc += a * b;
            }
            *yi += acc;
        }
    }

    /// dx += Wᵀ dy, rows with a zero `dy` skipped.
    fn backprop_input(&self, dy: &[f64], dx: &mut [f64]) {
        axpy_nonzero(dx, dy.iter().copied().zip(self.w.chunks_exact(self.cols)));
    }

    /// dW[r,:] += Σ_t dy_t[r] · x_t over a window of `steps` steps (`dy`
    /// and `x` step-major), row by row with the steps summed in reverse
    /// order and zero `dy` skipped: per weight, the additions of a
    /// per-step `dW += dy ⊗ x` walking the window backwards.
    fn accumulate_window(&mut self, x: &[f64], dy: &[f64], steps: usize) {
        let (rows, cols) = (self.rows, self.cols);
        for r in 0..rows {
            let terms = (0..steps)
                .rev()
                .map(|t| (dy[t * rows + r], &x[t * cols..(t + 1) * cols]));
            axpy_nonzero(&mut self.g[r * cols..(r + 1) * cols], terms);
        }
    }

    /// [`Self::accumulate_window`] for a bias (a `rows × 1` tensor whose
    /// input is the constant 1).
    fn accumulate_bias_window(&mut self, dy: &[f64], steps: usize) {
        let rows = self.rows;
        for (r, g) in self.g.iter_mut().enumerate() {
            for t in (0..steps).rev() {
                let d = dy[t * rows + r];
                if d != 0.0 {
                    *g += d * 1.0;
                }
            }
        }
    }

    fn adam_step(&mut self, lr: f64, wd: f64, t: usize, clip: f64) {
        // Per-tensor gradient clipping.
        let norm: f64 = self.g.iter().map(|g| g * g).sum::<f64>().sqrt();
        let scale = if norm > clip && norm > 0.0 {
            clip / norm
        } else {
            1.0
        };
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for i in 0..self.w.len() {
            let g = self.g[i] * scale + wd * self.w[i];
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.w[i] -= lr * mhat / (vhat.sqrt() + eps);
            self.g[i] = 0.0;
        }
    }
}

#[inline(always)]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// `acc += d0·r0`, then `+= d1·r1`, `+= d2·r2`, `+= d3·r3`, elementwise:
/// four axpys in one pass, so `acc` is loaded and stored once.
#[inline(always)]
fn axpy4(acc: &mut [f64], d: [f64; 4], rows: [&[f64]; 4]) {
    let n = acc.len();
    let [r0, r1, r2, r3] = rows.map(|r| &r[..n]);
    for (k, a) in acc.iter_mut().enumerate() {
        let mut v = *a;
        v += d[0] * r0[k];
        v += d[1] * r1[k];
        v += d[2] * r2[k];
        v += d[3] * r3[k];
        *a = v;
    }
}

/// `acc += d · row` for each `(d, row)` in order, terms with a zero `d`
/// skipped: the additions of one axpy per term, fused four to a pass.
fn axpy_nonzero<'a>(acc: &mut [f64], terms: impl IntoIterator<Item = (f64, &'a [f64])>) {
    let mut d = [0.0; 4];
    let mut rows: [&[f64]; 4] = [&[]; 4];
    let mut held = 0;
    for (di, row) in terms {
        if di != 0.0 {
            d[held] = di;
            rows[held] = row;
            held += 1;
            if held == 4 {
                axpy4(acc, d, rows);
                held = 0;
            }
        }
    }
    for (di, row) in d.iter().zip(rows).take(held) {
        for (a, x) in acc.iter_mut().zip(row) {
            *a += di * x;
        }
    }
}

/// `dst[c * rows + r] = src[r * cols + c]`: a window's step-major inputs
/// turned input-major, so a batched pass can run across steps.
fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    for (r, row) in src.chunks_exact(cols.max(1)).take(rows).enumerate() {
        for (c, v) in row.iter().enumerate() {
            dst[c * rows + r] = *v;
        }
    }
}

/// One LSTM layer's parameters.
#[derive(Debug, Clone)]
struct LstmLayer {
    wx: Tensor, // 4H × I
    wh: Tensor, // 4H × H
    b: Tensor,  // 4H × 1
    hidden: usize,
    input: usize,
}

/// One layer's activations over a window (for BPTT), plus the state it
/// carries into the next window.
struct WindowCache {
    hidden: usize,
    /// Steps in the current window.
    steps: usize,
    /// `(steps + 1) × H` hidden states: row 0 is the state carried in,
    /// row `t + 1` is `h_t`.
    h: Vec<f64>,
    /// `(steps + 1) × H` cell states, laid out like `h`.
    c: Vec<f64>,
    /// `steps × 4H`: the pre-activations, overwritten in place by the
    /// gates `[i f o g]`, which the backward pass in turn overwrites with
    /// the pre-activation gradients.
    gates: Vec<f64>,
    /// `steps × H`: `tanh(c_t)`.
    tanh_c: Vec<f64>,
}

impl WindowCache {
    fn new(hidden: usize, max_steps: usize) -> Self {
        WindowCache {
            hidden,
            steps: 0,
            h: vec![0.0; (max_steps + 1) * hidden],
            c: vec![0.0; (max_steps + 1) * hidden],
            gates: vec![0.0; max_steps * 4 * hidden],
            tanh_c: vec![0.0; max_steps * hidden],
        }
    }

    /// Zero the carried state (the start of a stream).
    fn reset(&mut self) {
        self.steps = 0;
        self.h[..self.hidden].fill(0.0);
        self.c[..self.hidden].fill(0.0);
    }

    /// Start a window of `steps` steps from the last window's final state.
    fn begin(&mut self, steps: usize) {
        let (hd, last) = (self.hidden, self.steps * self.hidden);
        self.h.copy_within(last..last + hd, 0);
        self.c.copy_within(last..last + hd, 0);
        self.steps = steps;
    }

    /// The window's outputs `h_0 … h_{steps-1}`, step-major.
    fn outputs(&self) -> &[f64] {
        &self.h[self.hidden..(self.steps + 1) * self.hidden]
    }
}

impl LstmLayer {
    fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = Tensor::zeros(4 * hidden, 1);
        // Forget-gate bias starts at +1 (standard trick for long memories).
        for i in hidden..2 * hidden {
            b.w[i] = 1.0;
        }
        LstmLayer {
            wx: Tensor::new(4 * hidden, input, rng),
            wh: Tensor::new(4 * hidden, hidden, rng),
            b,
            hidden,
            input,
        }
    }

    /// Run `steps` steps whose inputs are given input-major
    /// (`xt[k * steps + t]`), continuing from `cache`'s carried state.
    /// `acc` is scratch of at least `steps`.
    fn forward_window(&self, xt: &[f64], steps: usize, acc: &mut [f64], cache: &mut WindowCache) {
        let hdim = self.hidden;
        let h4 = 4 * hdim;
        cache.begin(steps);
        // z_t = b + Wx x_t for every step at once: per row, each step keeps
        // its own accumulator over the inputs in order, so the inner loop
        // runs across steps.
        let acc = &mut acc[..steps];
        for r in 0..h4 {
            acc.fill(0.0);
            let row = &self.wx.w[r * self.input..(r + 1) * self.input];
            let mut ws = row.chunks_exact(4);
            for (w, x4) in (&mut ws).zip(xt.chunks_exact(4 * steps)) {
                let xk = |i: usize| &x4[i * steps..(i + 1) * steps];
                axpy4(acc, [w[0], w[1], w[2], w[3]], [xk(0), xk(1), xk(2), xk(3)]);
            }
            let tail = &xt[(self.input - ws.remainder().len()) * steps..];
            for (w, xk) in ws.remainder().iter().zip(tail.chunks_exact(steps)) {
                for (a, x) in acc.iter_mut().zip(xk) {
                    *a += w * x;
                }
            }
            let br = self.b.w[r];
            for (t, a) in acc.iter().enumerate() {
                cache.gates[t * h4 + r] = br + a;
            }
        }
        // The recurrence: z_t += Wh h_{t-1}, then the cell.
        for t in 0..steps {
            let z = &mut cache.gates[t * h4..(t + 1) * h4];
            let (h_past, h_next) = cache.h.split_at_mut((t + 1) * hdim);
            let (c_past, c_next) = cache.c.split_at_mut((t + 1) * hdim);
            let h_prev = &h_past[t * hdim..];
            let c_prev = &c_past[t * hdim..];
            self.wh.matvec_into(h_prev, z);
            for j in 0..hdim {
                z[j] = sigmoid(z[j]); // input gate
                z[hdim + j] = sigmoid(z[hdim + j]); // forget gate
                z[2 * hdim + j] = sigmoid(z[2 * hdim + j]); // output gate
                z[3 * hdim + j] = z[3 * hdim + j].tanh(); // candidate
            }
            let tanh_c = &mut cache.tanh_c[t * hdim..(t + 1) * hdim];
            for j in 0..hdim {
                let c = z[hdim + j] * c_prev[j] + z[j] * z[3 * hdim + j];
                c_next[j] = c;
                tanh_c[j] = c.tanh();
                h_next[j] = z[2 * hdim + j] * tanh_c[j];
            }
        }
    }

    /// Backpropagate through the window `cache` holds. `x` is the window's
    /// inputs (step-major), `inj` the gradient flowing into each step's
    /// output from above; the window's `dW` is accumulated into the
    /// tensors. The gradient w.r.t. the pre-activations overwrites the
    /// gates in `cache`. With `dx`, the gradient w.r.t. each step's input
    /// is written there (step-major).
    fn backward_window(
        &mut self,
        x: &[f64],
        cache: &mut WindowCache,
        inj: &[f64],
        dx: Option<&mut [f64]>,
    ) {
        let hdim = self.hidden;
        let h4 = 4 * hdim;
        let steps = cache.steps;
        let mut dh = vec![0.0; hdim];
        let mut dc = vec![0.0; hdim];
        let mut dh_prev = vec![0.0; hdim];
        for t in (0..steps).rev() {
            for (d, g) in dh.iter_mut().zip(&inj[t * hdim..(t + 1) * hdim]) {
                *d += g;
            }
            let tanh_c = &cache.tanh_c[t * hdim..(t + 1) * hdim];
            let c_prev = &cache.c[t * hdim..(t + 1) * hdim];
            let dzt = &mut cache.gates[t * h4..(t + 1) * h4];
            for j in 0..hdim {
                let i = dzt[j];
                let f = dzt[hdim + j];
                let o = dzt[2 * hdim + j];
                let g = dzt[3 * hdim + j];
                let tc = tanh_c[j];
                // h = o * tanh(c)
                let do_ = dh[j] * tc;
                let dtc = dh[j] * o;
                let dcj = dc[j] + dtc * (1.0 - tc * tc);
                // c = f*c_prev + i*g
                let di = dcj * g;
                let df = dcj * c_prev[j];
                let dg = dcj * i;
                dc[j] = dcj * f; // flows to c_prev
                dzt[j] = di * i * (1.0 - i);
                dzt[hdim + j] = df * f * (1.0 - f);
                dzt[2 * hdim + j] = do_ * o * (1.0 - o);
                dzt[3 * hdim + j] = dg * (1.0 - g * g);
            }
            // dh_{t-1} = Wh^T dz_t; the window's first step has no reader.
            if t > 0 {
                dh_prev.fill(0.0);
                self.wh.backprop_input(dzt, &mut dh_prev);
                std::mem::swap(&mut dh, &mut dh_prev);
            }
        }
        let dz = &cache.gates[..steps * h4];
        self.wx.accumulate_window(x, dz, steps);
        self.wh
            .accumulate_window(&cache.h[..steps * hdim], dz, steps);
        self.b.accumulate_bias_window(dz, steps);
        if let Some(dx) = dx {
            // dx_t = Wx^T dz_t for every step.
            for (dxt, dzt) in dx.chunks_exact_mut(self.input).zip(dz.chunks_exact(h4)) {
                dxt.fill(0.0);
                self.wx.backprop_input(dzt, dxt);
            }
        }
    }
}

/// A trained LSTM forecaster.
pub struct LstmModel {
    layers: Vec<LstmLayer>,
    head1: Tensor,
    head1_b: Tensor,
    head2: Tensor,
    head2_b: Tensor,
    feat_norm: Vec<(f64, f64)>,
    target_norm: (f64, f64),
    hidden: usize,
}

fn norms(rows: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let k = rows.first().map(|r| r.len()).unwrap_or(0);
    (0..k)
        .map(|c| {
            let m = rows.iter().map(|r| r[c]).sum::<f64>() / rows.len() as f64;
            let v = rows.iter().map(|r| (r[c] - m) * (r[c] - m)).sum::<f64>() / rows.len() as f64;
            (m, v.sqrt().max(1e-9))
        })
        .collect()
}

impl LstmModel {
    /// The untrained model for a stream, plus the standardised features
    /// and targets it trains on.
    fn init(
        features: &[Vec<f64>],
        targets: &[f64],
        cfg: &LstmConfig,
    ) -> (LstmModel, Vec<Vec<f64>>, Vec<f64>) {
        assert_eq!(
            features.len(),
            targets.len(),
            "features and targets must align"
        );
        assert!(!features.is_empty(), "empty training stream");
        let nfeat = features[0].len();
        let hidden = if cfg.hidden == 0 {
            nfeat.max(4)
        } else {
            cfg.hidden
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let feat_norm = norms(features);
        let tm = targets.iter().sum::<f64>() / targets.len() as f64;
        let tv = targets.iter().map(|t| (t - tm) * (t - tm)).sum::<f64>() / targets.len() as f64;
        let target_norm = (tm, tv.sqrt().max(1e-9));

        let mut layers = Vec::with_capacity(cfg.layers.max(1));
        for l in 0..cfg.layers.max(1) {
            let input = if l == 0 { nfeat } else { hidden };
            layers.push(LstmLayer::new(input, hidden, &mut rng));
        }
        let model = LstmModel {
            layers,
            head1: Tensor::new(hidden, hidden, &mut rng),
            head1_b: Tensor::zeros(hidden, 1),
            head2: Tensor::new(1, hidden, &mut rng),
            head2_b: Tensor::zeros(1, 1),
            feat_norm,
            target_norm,
            hidden,
        };

        let xs: Vec<Vec<f64>> = features
            .iter()
            .map(|row| model.standardise(row).collect())
            .collect();
        let ys: Vec<f64> = targets.iter().map(|t| (t - tm) / target_norm.1).collect();
        (model, xs, ys)
    }

    fn standardise<'a>(&'a self, row: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        row.iter()
            .zip(&self.feat_norm)
            .map(|(x, (m, s))| (x - m) / s)
    }

    /// The dense head on one top-layer output: `tanh(W1 h + b1)` into
    /// `mid`, returning `W2 · mid + b2`.
    fn head(&self, top: &[f64], mid: &mut [f64]) -> f64 {
        mid.copy_from_slice(&self.head1_b.w);
        self.head1.matvec_into(top, mid);
        for m in mid.iter_mut() {
            *m = m.tanh();
        }
        let mut out = [self.head2_b.w[0]];
        self.head2.matvec_into(mid, &mut out);
        out[0]
    }

    /// Adam step over every tensor.
    fn adam_step(&mut self, cfg: &LstmConfig, t: usize) {
        for layer in &mut self.layers {
            layer.wx.adam_step(cfg.lr, cfg.weight_decay, t, cfg.clip);
            layer.wh.adam_step(cfg.lr, cfg.weight_decay, t, cfg.clip);
            layer.b.adam_step(cfg.lr, 0.0, t, cfg.clip);
        }
        self.head1.adam_step(cfg.lr, cfg.weight_decay, t, cfg.clip);
        self.head1_b.adam_step(cfg.lr, 0.0, t, cfg.clip);
        self.head2.adam_step(cfg.lr, cfg.weight_decay, t, cfg.clip);
        self.head2_b.adam_step(cfg.lr, 0.0, t, cfg.clip);
    }

    /// Train on a feature stream and aligned targets.
    pub fn train(features: &[Vec<f64>], targets: &[f64], cfg: &LstmConfig) -> LstmModel {
        let (mut model, xs, ys) = LstmModel::init(features, targets, cfg);
        let hidden = model.hidden;
        let nfeat = xs[0].len();
        let nl = model.layers.len();
        let window = cfg.window.max(4).min(xs.len());

        let mut caches: Vec<WindowCache> =
            (0..nl).map(|_| WindowCache::new(hidden, window)).collect();
        let mut x0 = vec![0.0; window * nfeat]; // layer 0's window, step-major
        let mut xt = vec![0.0; window * nfeat.max(hidden)];
        let mut acc = vec![0.0; window];
        let mut mids = vec![0.0; window * hidden];
        let mut dloss = vec![0.0; window];
        let mut inj = vec![0.0; window * hidden];
        let mut dx = vec![0.0; window * hidden];
        let mut dmids = vec![0.0; window * hidden];

        let mut t_adam = 0usize;
        for _epoch in 0..cfg.epochs {
            for cache in &mut caches {
                cache.reset();
            }
            let mut start = 0usize;
            while start < xs.len() {
                let end = (start + window).min(xs.len());
                let steps = end - start;
                for (dst, row) in x0.chunks_exact_mut(nfeat.max(1)).zip(&xs[start..end]) {
                    dst.copy_from_slice(row);
                }
                // Forward, one layer at a time over the whole window.
                for l in 0..nl {
                    let (below, here) = caches.split_at_mut(l);
                    if l == 0 {
                        transpose_into(&x0, steps, nfeat, &mut xt);
                    } else {
                        transpose_into(below[l - 1].outputs(), steps, hidden, &mut xt);
                    }
                    model.layers[l].forward_window(&xt, steps, &mut acc, &mut here[0]);
                }
                // Dense head and loss per step.
                let top = caches[nl - 1].outputs();
                for t in 0..steps {
                    let mid = &mut mids[t * hidden..(t + 1) * hidden];
                    let out = model.head(&top[t * hidden..(t + 1) * hidden], mid);
                    let err = out - ys[start + t];
                    dloss[t] = 2.0 * err / steps as f64;
                }
                // Backward: the head in reverse time, its gradient w.r.t.
                // the top layer's outputs into `inj`.
                for t in (0..steps).rev() {
                    let mid = &mids[t * hidden..(t + 1) * hidden];
                    let dmid = &mut dmids[t * hidden..(t + 1) * hidden];
                    dmid.fill(0.0);
                    model.head2.backprop_input(&dloss[t..t + 1], dmid);
                    for (d, m) in dmid.iter_mut().zip(mid) {
                        *d *= 1.0 - m * m;
                    }
                    let dtop = &mut inj[t * hidden..(t + 1) * hidden];
                    dtop.fill(0.0);
                    model.head1.backprop_input(dmid, dtop);
                }
                model.head2.accumulate_window(&mids, &dloss, steps);
                model.head2_b.accumulate_bias_window(&dloss, steps);
                model.head1.accumulate_window(top, &dmids, steps);
                model.head1_b.accumulate_bias_window(&dmids, steps);
                // Then the layers, top down; layer 0's input gradient has
                // no reader.
                for l in (0..nl).rev() {
                    let (below, here) = caches.split_at_mut(l);
                    let x = if l == 0 {
                        &x0[..steps * nfeat]
                    } else {
                        below[l - 1].outputs()
                    };
                    let dx_out = (l > 0).then_some(&mut dx[..]);
                    model.layers[l].backward_window(x, &mut here[0], &inj, dx_out);
                    std::mem::swap(&mut inj, &mut dx);
                }
                t_adam += 1;
                model.adam_step(cfg, t_adam);
                start = end;
                // State carries across windows (stateful TBPTT), gradients
                // do not.
            }
        }
        model
    }

    /// Roll the trained network over a feature stream, returning the
    /// predicted biomass series (de-standardised, clamped non-negative).
    pub fn predict(&self, features: &[Vec<f64>]) -> Vec<f64> {
        let hidden = self.hidden;
        let nfeat = self.feat_norm.len();
        let mut caches: Vec<WindowCache> = self
            .layers
            .iter()
            .map(|_| WindowCache::new(hidden, PREDICT_CHUNK))
            .collect();
        let mut xt = vec![0.0; PREDICT_CHUNK * nfeat.max(hidden)];
        let mut acc = vec![0.0; PREDICT_CHUNK];
        let mut mid = vec![0.0; hidden];
        let (tm, ts) = self.target_norm;
        let mut out = Vec::with_capacity(features.len());
        for chunk in features.chunks(PREDICT_CHUNK) {
            let steps = chunk.len();
            for (t, row) in chunk.iter().enumerate() {
                for (k, x) in self.standardise(row).enumerate() {
                    xt[k * steps + t] = x;
                }
            }
            for l in 0..self.layers.len() {
                let (below, here) = caches.split_at_mut(l);
                if l > 0 {
                    transpose_into(below[l - 1].outputs(), steps, hidden, &mut xt);
                }
                self.layers[l].forward_window(&xt, steps, &mut acc, &mut here[0]);
            }
            for top in caches[self.layers.len() - 1].outputs().chunks_exact(hidden) {
                let y = self.head(top, &mut mid);
                out.push((y * ts + tm).max(0.0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // ---- The per-step reference: one layer, one step at a time ----
    //
    // The textbook formulation the window kernel replaced, kept verbatim
    // as the bit-identity oracle.

    /// Cached activations for one time step (for BPTT).
    struct StepCache {
        x: Vec<f64>,
        h_prev: Vec<f64>,
        c_prev: Vec<f64>,
        gates: Vec<f64>, // [i f o g] post-activation
        tanh_c: Vec<f64>,
    }

    impl Tensor {
        /// y += W x, one dependent sum per row.
        #[allow(clippy::needless_range_loop)] // rows of a flat matrix
        fn matvec_ref(&self, x: &[f64], y: &mut [f64]) {
            for r in 0..self.rows {
                let row = &self.w[r * self.cols..(r + 1) * self.cols];
                let mut acc = 0.0;
                for (a, b) in row.iter().zip(x) {
                    acc += a * b;
                }
                y[r] += acc;
            }
        }

        /// dW += dy ⊗ x ;  dx += Wᵀ dy
        #[allow(clippy::needless_range_loop)] // rows of a flat matrix
        fn backprop_ref(&mut self, x: &[f64], dy: &[f64], dx: Option<&mut [f64]>) {
            for r in 0..self.rows {
                let d = dy[r];
                if d != 0.0 {
                    let grow = &mut self.g[r * self.cols..(r + 1) * self.cols];
                    for (gi, xi) in grow.iter_mut().zip(x) {
                        *gi += d * xi;
                    }
                }
            }
            if let Some(dx) = dx {
                for r in 0..self.rows {
                    let d = dy[r];
                    if d != 0.0 {
                        let row = &self.w[r * self.cols..(r + 1) * self.cols];
                        for (dxi, wi) in dx.iter_mut().zip(row) {
                            *dxi += d * wi;
                        }
                    }
                }
            }
        }
    }

    impl LstmLayer {
        fn forward(&self, x: &[f64], h: &mut [f64], c: &mut [f64]) -> StepCache {
            let hdim = self.hidden;
            let mut z = self.b.w.clone();
            self.wx.matvec_ref(x, &mut z);
            self.wh.matvec_ref(h, &mut z);
            let mut gates = vec![0.0; 4 * hdim];
            for j in 0..hdim {
                gates[j] = sigmoid(z[j]); // input gate
                gates[hdim + j] = sigmoid(z[hdim + j]); // forget gate
                gates[2 * hdim + j] = sigmoid(z[2 * hdim + j]); // output gate
                gates[3 * hdim + j] = z[3 * hdim + j].tanh(); // candidate
            }
            let c_prev = c.to_vec();
            let h_prev = h.to_vec();
            let mut tanh_c = vec![0.0; hdim];
            for j in 0..hdim {
                c[j] = gates[hdim + j] * c_prev[j] + gates[j] * gates[3 * hdim + j];
                tanh_c[j] = c[j].tanh();
                h[j] = gates[2 * hdim + j] * tanh_c[j];
            }
            StepCache {
                x: x.to_vec(),
                h_prev,
                c_prev,
                gates,
                tanh_c,
            }
        }

        /// Backward one step. `dh`/`dc` carry gradients from the future;
        /// returns the gradient w.r.t. the step input.
        fn backward(&mut self, cache: &StepCache, dh: &mut Vec<f64>, dc: &mut [f64]) -> Vec<f64> {
            let hdim = self.hidden;
            let mut dz = vec![0.0; 4 * hdim];
            for j in 0..hdim {
                let i = cache.gates[j];
                let f = cache.gates[hdim + j];
                let o = cache.gates[2 * hdim + j];
                let g = cache.gates[3 * hdim + j];
                let tc = cache.tanh_c[j];
                let do_ = dh[j] * tc;
                let dtc = dh[j] * o;
                let dcj = dc[j] + dtc * (1.0 - tc * tc);
                let di = dcj * g;
                let df = dcj * cache.c_prev[j];
                let dg = dcj * i;
                dc[j] = dcj * f;
                dz[j] = di * i * (1.0 - i);
                dz[hdim + j] = df * f * (1.0 - f);
                dz[2 * hdim + j] = do_ * o * (1.0 - o);
                dz[3 * hdim + j] = dg * (1.0 - g * g);
            }
            let mut dx = vec![0.0; self.input];
            let mut dh_prev = vec![0.0; hdim];
            self.wx.backprop_ref(&cache.x, &dz, Some(&mut dx));
            self.wh.backprop_ref(&cache.h_prev, &dz, Some(&mut dh_prev));
            self.b.backprop_ref(&[1.0], &dz, None);
            *dh = dh_prev;
            dx
        }
    }

    /// The per-step training loop: every layer advances one step before
    /// the next step starts, and BPTT walks steps, then layers.
    fn reference_train(features: &[Vec<f64>], targets: &[f64], cfg: &LstmConfig) -> LstmModel {
        let (mut model, xs, ys) = LstmModel::init(features, targets, cfg);
        let hidden = model.hidden;
        let window = cfg.window.max(4).min(xs.len());
        let mut t_adam = 0usize;
        for _epoch in 0..cfg.epochs {
            let nl = model.layers.len();
            let mut h: Vec<Vec<f64>> = vec![vec![0.0; hidden]; nl];
            let mut c: Vec<Vec<f64>> = vec![vec![0.0; hidden]; nl];
            let mut start = 0usize;
            while start < xs.len() {
                let end = (start + window).min(xs.len());
                let mut caches: Vec<Vec<StepCache>> =
                    (0..nl).map(|_| Vec::with_capacity(end - start)).collect();
                let mut mids: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(end - start);
                let mut dloss: Vec<f64> = Vec::with_capacity(end - start);
                for t in start..end {
                    let mut inp = xs[t].clone();
                    for (l, layer) in model.layers.iter().enumerate() {
                        let cache = layer.forward(&inp, &mut h[l], &mut c[l]);
                        inp = h[l].clone();
                        caches[l].push(cache);
                    }
                    let mut mid = model.head1_b.w.clone();
                    model.head1.matvec_ref(&inp, &mut mid);
                    for m in &mut mid {
                        *m = m.tanh();
                    }
                    let mut out = model.head2_b.w.clone();
                    model.head2.matvec_ref(&mid, &mut out);
                    let err = out[0] - ys[t];
                    dloss.push(2.0 * err / (end - start) as f64);
                    mids.push((inp, mid));
                }
                let mut dh: Vec<Vec<f64>> = vec![vec![0.0; hidden]; nl];
                let mut dcv: Vec<Vec<f64>> = vec![vec![0.0; hidden]; nl];
                for ti in (0..end - start).rev() {
                    let (top_h, mid) = &mids[ti];
                    let dout = dloss[ti];
                    let mut dmid = vec![0.0; hidden];
                    model.head2.backprop_ref(mid, &[dout], Some(&mut dmid));
                    model.head2_b.backprop_ref(&[1.0], &[dout], None);
                    for (d, m) in dmid.iter_mut().zip(mid) {
                        *d *= 1.0 - m * m;
                    }
                    let mut dtop = vec![0.0; hidden];
                    model.head1.backprop_ref(top_h, &dmid, Some(&mut dtop));
                    model.head1_b.backprop_ref(&[1.0], &dmid, None);
                    for j in 0..hidden {
                        dh[nl - 1][j] += dtop[j];
                    }
                    let mut dx_upper: Option<Vec<f64>> = None;
                    for l in (0..nl).rev() {
                        if let Some(dx) = dx_upper.take() {
                            for j in 0..hidden {
                                dh[l][j] += dx[j];
                            }
                        }
                        let cache = &caches[l][ti];
                        let dx = model.layers[l].backward(cache, &mut dh[l], &mut dcv[l]);
                        dx_upper = Some(dx);
                    }
                }
                t_adam += 1;
                model.adam_step(cfg, t_adam);
                start = end;
            }
        }
        model
    }

    fn reference_predict(model: &LstmModel, features: &[Vec<f64>]) -> Vec<f64> {
        let nl = model.layers.len();
        let mut h: Vec<Vec<f64>> = vec![vec![0.0; model.hidden]; nl];
        let mut c: Vec<Vec<f64>> = vec![vec![0.0; model.hidden]; nl];
        let mut out = Vec::with_capacity(features.len());
        for row in features {
            let mut inp: Vec<f64> = row
                .iter()
                .zip(&model.feat_norm)
                .map(|(x, (m, s))| (x - m) / s)
                .collect();
            for (l, layer) in model.layers.iter().enumerate() {
                let _ = layer.forward(&inp, &mut h[l], &mut c[l]);
                inp = h[l].clone();
            }
            let mut mid = model.head1_b.w.clone();
            model.head1.matvec_ref(&inp, &mut mid);
            for m in &mut mid {
                *m = m.tanh();
            }
            let mut y = model.head2_b.w.clone();
            model.head2.matvec_ref(&mid, &mut y);
            let (tm, ts) = model.target_norm;
            out.push((y[0] * ts + tm).max(0.0));
        }
        out
    }

    /// Every weight of the model, as bits.
    fn weight_bits(model: &LstmModel) -> Vec<u64> {
        let mut tensors: Vec<&Tensor> = model
            .layers
            .iter()
            .flat_map(|l| [&l.wx, &l.wh, &l.b])
            .collect();
        tensors.extend([&model.head1, &model.head1_b, &model.head2, &model.head2_b]);
        tensors
            .iter()
            .flat_map(|t| t.w.iter().map(|w| w.to_bits()))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random stream: `nfeat` features (with two or more, the last is
    /// constant, so standardised inputs hold exact zeros) and a target
    /// with memory.
    fn random_stream(n: usize, nfeat: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = 1.0;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row: Vec<f64> = (0..nfeat).map(|_| rng.gen_range(-2.0..2.0)).collect();
            if nfeat > 1 {
                row[nfeat - 1] = 3.0;
            }
            y = 0.6 * y + row.first().map_or(0.5, |x| x.abs()) + rng.gen_range(0.0..0.5);
            xs.push(row);
            ys.push(y);
        }
        (xs, ys)
    }

    /// Train and predict with both kernels; assert every weight and every
    /// prediction (on the training stream and on a fresh one) is
    /// bit-identical.
    fn assert_matches_reference(cfg: &LstmConfig, n: usize, nfeat: usize, predict_len: usize) {
        let (xs, ys) = random_stream(n, nfeat, cfg.seed);
        let (xp, _) = random_stream(predict_len, nfeat, cfg.seed ^ 0x5eed);
        let fast = LstmModel::train(&xs, &ys, cfg);
        let slow = reference_train(&xs, &ys, cfg);
        assert_eq!(weight_bits(&fast), weight_bits(&slow), "weights: {cfg:?}");
        for stream in [&xs, &xp] {
            assert_eq!(
                bits(&fast.predict(stream)),
                bits(&reference_predict(&slow, stream)),
                "predictions: {cfg:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The layer-major window kernel is bit-identical to the per-step
        /// reference: 1–3 layers, 0–6 inputs, hidden sizes off the row
        /// block, a partial last window, 1–2 epochs, prediction across
        /// chunk boundaries. A high learning rate drives gates into
        /// saturation, so the zero-gradient row skips are exercised too.
        #[test]
        fn window_kernel_is_bit_identical_to_per_step_reference(
            layers in 1usize..=3,
            hidden in prop_oneof![Just(0usize), 1usize..=13],
            nfeat in 0usize..=6,
            window in 4usize..=24,
            full_windows in 1usize..=5,
            tail in 0usize..1000,
            epochs in 1usize..=2,
            lr in prop_oneof![Just(0.01f64), Just(1.0f64)],
            predict_len in 1usize..=200,
            seed in any::<u64>(),
        ) {
            let cfg = LstmConfig {
                hidden,
                layers,
                epochs,
                lr,
                window,
                seed,
                ..LstmConfig::default()
            };
            // A partial last window of 1..window steps.
            let n = window * full_windows + 1 + tail % (window - 1);
            assert_matches_reference(&cfg, n, nfeat, predict_len);
        }
    }

    #[test]
    fn window_kernel_is_bit_identical_at_the_rnn_all_shape() {
        // RNN-All: 90 features, hidden 90, two layers, window 60.
        let cfg = LstmConfig {
            epochs: 1,
            seed: 3,
            ..LstmConfig::default()
        };
        assert_matches_reference(&cfg, 130, 90, 70);
    }

    /// A memory task: y_t = 0.7 y_{t-1} + x_t (the target depends on
    /// history, so a memoryless map cannot fit it).
    fn memory_task(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut y = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen_range(-1.0..1.0);
            y = 0.7 * y + x;
            xs.push(vec![x]);
            ys.push(y);
        }
        (xs, ys)
    }

    fn small_cfg(seed: u64) -> LstmConfig {
        LstmConfig {
            hidden: 8,
            layers: 1,
            epochs: 40,
            window: 32,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn learns_memory_task() {
        let (xs, ys) = memory_task(400, 1);
        let model = LstmModel::train(&xs, &ys, &small_cfg(1));
        // Compare against a clamped target (predict() clamps at 0, matching
        // the biomass use case) on fresh data from the same process.
        let (xt, yt) = memory_task(200, 2);
        let pred = model.predict(&xt);
        let yt_clamped: Vec<f64> = yt.iter().map(|v| v.max(0.0)).collect();
        let rmse = gmr_hydro::rmse(&pred, &yt_clamped);
        let sd = {
            let m = yt_clamped.iter().sum::<f64>() / yt_clamped.len() as f64;
            (yt_clamped.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / yt_clamped.len() as f64)
                .sqrt()
        };
        assert!(
            rmse < 0.8 * sd,
            "LSTM did not beat the mean predictor: {rmse} vs sd {sd}"
        );
    }

    #[test]
    fn deterministic_training() {
        let (xs, ys) = memory_task(150, 3);
        let a = LstmModel::train(&xs, &ys, &small_cfg(7)).predict(&xs);
        let b = LstmModel::train(&xs, &ys, &small_cfg(7)).predict(&xs);
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_nonnegative_and_aligned() {
        let (xs, ys) = memory_task(100, 4);
        let model = LstmModel::train(&xs, &ys, &small_cfg(5));
        let pred = model.predict(&xs);
        assert_eq!(pred.len(), xs.len());
        assert!(pred.iter().all(|p| *p >= 0.0));
    }

    #[test]
    fn training_reduces_loss() {
        let (xs, ys) = memory_task(300, 5);
        let ys_clamped: Vec<f64> = ys.iter().map(|v| v.max(0.0)).collect();
        let untrained = LstmModel::train(
            &xs,
            &ys,
            &LstmConfig {
                epochs: 0,
                ..small_cfg(6)
            },
        )
        .predict(&xs);
        let trained = LstmModel::train(&xs, &ys, &small_cfg(6)).predict(&xs);
        assert!(
            gmr_hydro::rmse(&trained, &ys_clamped) < gmr_hydro::rmse(&untrained, &ys_clamped),
            "training must improve in-sample fit"
        );
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        // The strongest correctness evidence a from-scratch backprop can
        // have: analytic ∂L/∂W and ∂L/∂x from the window kernel equal
        // central finite differences through its full unrolled forward
        // pass.
        let (input, hidden, steps) = (2, 3, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let layer = LstmLayer::new(input, hidden, &mut rng);
        let xs: Vec<f64> = (0..steps)
            .flat_map(|t| [0.1 * t as f64, 0.3 - 0.05 * t as f64])
            .collect();
        let forward = |layer: &LstmLayer, xs: &[f64]| -> WindowCache {
            let mut xt = vec![0.0; steps * input];
            transpose_into(xs, steps, input, &mut xt);
            let mut cache = WindowCache::new(hidden, steps);
            layer.forward_window(&xt, steps, &mut vec![0.0; steps], &mut cache);
            cache
        };
        // L = Σ_t Σ_j (j + 1) · h_t[j]
        let loss = |layer: &LstmLayer, xs: &[f64]| -> f64 {
            let cache = forward(layer, xs);
            cache
                .outputs()
                .chunks_exact(hidden)
                .flat_map(|h| h.iter().enumerate().map(|(j, v)| (j + 1) as f64 * v))
                .sum()
        };
        // Analytic gradients via windowed BPTT.
        let mut work = layer.clone();
        let mut cache = forward(&work, &xs);
        let inj: Vec<f64> = (0..steps)
            .flat_map(|_| (0..hidden).map(|j| (j + 1) as f64))
            .collect();
        let mut dx = vec![0.0; steps * input];
        work.backward_window(&xs, &mut cache, &inj, Some(&mut dx));
        let eps = 1e-6;
        let close = |what: String, analytic: f64, numeric: f64| {
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "{what}: analytic {analytic} vs numeric {numeric}"
            );
        };
        // A spread of weights across all three tensors.
        type Get = fn(&LstmLayer) -> &Tensor;
        type GetMut = fn(&mut LstmLayer) -> &mut Tensor;
        let tensors: [(&str, Get, GetMut); 3] = [
            ("wx", |l| &l.wx, |l| &mut l.wx),
            ("wh", |l| &l.wh, |l| &mut l.wh),
            ("b", |l| &l.b, |l| &mut l.b),
        ];
        for (name, get, get_mut) in tensors {
            let len = get(&layer).w.len();
            for i in (0..len).step_by((len / 5).max(1)) {
                let mut plus = layer.clone();
                get_mut(&mut plus).w[i] += eps;
                let mut minus = layer.clone();
                get_mut(&mut minus).w[i] -= eps;
                let numeric = (loss(&plus, &xs) - loss(&minus, &xs)) / (2.0 * eps);
                close(format!("{name}[{i}]"), get(&work).g[i], numeric);
            }
        }
        // And every input of every step.
        for i in 0..xs.len() {
            let mut plus = xs.clone();
            plus[i] += eps;
            let mut minus = xs.clone();
            minus[i] -= eps;
            let numeric = (loss(&layer, &plus) - loss(&layer, &minus)) / (2.0 * eps);
            close(format!("x[{i}]"), dx[i], numeric);
        }
    }

    #[test]
    fn hidden_defaults_to_feature_count() {
        let xs = vec![vec![0.0; 5]; 50];
        let ys = vec![0.0; 50];
        let m = LstmModel::train(
            &xs,
            &ys,
            &LstmConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        assert_eq!(m.hidden, 5);
        assert_eq!(m.layers.len(), 2);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_inputs_panic() {
        let _ = LstmModel::train(&[vec![0.0]], &[0.0, 1.0], &LstmConfig::default());
    }
}
