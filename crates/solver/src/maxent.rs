//! Maximum-entropy weight assignment.
//!
//! Solves the convex program of QIRANA §3.3:
//!
//! ```text
//! maximize   -Σᵢ wᵢ log wᵢ
//! subject to  A w = b,   w ≥ 0
//! ```
//!
//! where each row of `A` encodes one seller constraint (row 0 is usually the
//! all-ones "total price" row, further rows are the support-set membership
//! indicators of price points). The paper calls CVXPY + the SCS conic
//! solver; the same optimum is reached here directly through the smooth,
//! k-dimensional dual:
//!
//! The Lagrangian stationarity condition gives `wᵢ(λ) = exp(-1 - aᵢᵀλ)`
//! (`aᵢ` = column i of A), automatically positive, and the dual
//! `g(λ) = Σᵢ wᵢ(λ) + λᵀb` is convex with gradient `b - A w(λ)` and Hessian
//! `A diag(w) Aᵀ` — minimized by a damped Newton iteration with a
//! gradient-descent fallback. Infeasible instances make the dual unbounded
//! below; this is detected via diverging iterates with non-shrinking primal
//! residual, mirroring SCS's infeasibility certificates.

use crate::linalg::{dot, norm, Matrix};
use std::time::{Duration, Instant};

/// The entropy-maximization problem `max -Σ w log w  s.t.  A w = b, w ≥ 0`.
#[derive(Debug, Clone)]
pub struct MaxEntProblem {
    /// Constraint matrix, one row per constraint (`k × n`, row-of-rows).
    pub a: Vec<Vec<f64>>,
    /// Right-hand sides (`k`).
    pub b: Vec<f64>,
    /// Number of variables `n`.
    pub n: usize,
}

/// Solver knobs. [`SolverOptions::default`] is tuned for QIRANA's use
/// (k ≤ a few dozen price points, n up to ~10⁶ support-set entries).
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Stop when `‖Aw - b‖ / (1 + ‖b‖)` drops below this.
    pub tolerance: f64,
    /// Newton/gradient iteration cap.
    pub max_iterations: usize,
    /// Wall-clock deadline for the iteration loop; `None` (the default)
    /// means iterations are bounded only by `max_iterations`. Checked at
    /// the top of every iteration, so the solve returns within one
    /// iteration's work of the limit.
    pub time_limit: Option<Duration>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-9,
            max_iterations: 200,
            time_limit: None,
        }
    }
}

impl SolverOptions {
    /// Builder: sets the wall-clock deadline.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

/// Why a solve was cut short without a feasibility verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// [`SolverOptions::time_limit`] elapsed before convergence.
    TimeLimit,
    /// Iterates became non-finite (NaN/∞ in the residual) — numerically
    /// diverged input, e.g. non-finite entries in `A` or `b`.
    NumericalDivergence,
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub enum SolveResult {
    /// Constraints satisfiable: the max-entropy weights.
    Optimal {
        weights: Vec<f64>,
        iterations: usize,
        /// Final relative primal residual.
        residual: f64,
    },
    /// No nonnegative `w` satisfies `A w = b` (or the solver could not
    /// certify one within its iteration budget).
    Infeasible {
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The solve was cut short (deadline or numerical divergence) before
    /// either converging or certifying infeasibility. Unlike `Infeasible`,
    /// a retry — with more time, a resampled support set, or cleaner
    /// inputs — may still succeed.
    Aborted {
        cause: AbortCause,
        /// Iterations completed before the abort.
        iterations: usize,
        /// Last observed relative primal residual (∞ if none was computed).
        residual: f64,
    },
}

impl SolveResult {
    /// The weights, if optimal.
    pub fn weights(&self) -> Option<&[f64]> {
        match self {
            SolveResult::Optimal { weights, .. } => Some(weights),
            SolveResult::Infeasible { .. } | SolveResult::Aborted { .. } => None,
        }
    }

    /// True iff the solve succeeded.
    pub fn is_optimal(&self) -> bool {
        matches!(self, SolveResult::Optimal { .. })
    }
}

/// Solves the problem with default options.
pub fn solve(problem: &MaxEntProblem) -> SolveResult {
    solve_with(problem, &SolverOptions::default())
}

/// Solves the problem with explicit options.
pub fn solve_with(problem: &MaxEntProblem, opts: &SolverOptions) -> SolveResult {
    let k = problem.a.len();
    let n = problem.n;
    assert_eq!(problem.b.len(), k, "b must have one entry per constraint");
    for (i, row) in problem.a.iter().enumerate() {
        assert_eq!(row.len(), n, "constraint row {i} has wrong arity");
    }
    if n == 0 {
        return if problem.b.iter().all(|&bi| bi.abs() < 1e-12) {
            SolveResult::Optimal {
                weights: vec![],
                iterations: 0,
                residual: 0.0,
            }
        } else {
            SolveResult::Infeasible {
                reason: "no variables but nonzero right-hand side".into(),
            }
        };
    }

    // Quick syntactic infeasibility checks for the nonnegative-A case (all
    // QIRANA constraint rows are 0/1 indicators): a negative target, or a
    // subset row demanding more than a superset row allows.
    let nonneg = problem.a.iter().flatten().all(|&v| v >= 0.0);
    if nonneg {
        for (j, &bj) in problem.b.iter().enumerate() {
            if bj < -1e-12 {
                return SolveResult::Infeasible {
                    reason: format!("constraint {j} demands a negative total {bj}"),
                };
            }
            if bj > 1e-12 && problem.a[j].iter().all(|&v| v == 0.0) {
                return SolveResult::Infeasible {
                    reason: format!("constraint {j} has empty support but target {bj}"),
                };
            }
        }
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                // row_i pointwise <= row_j implies b_i must be <= b_j.
                let dominated = problem.a[i]
                    .iter()
                    .zip(&problem.a[j])
                    .all(|(&x, &y)| x <= y + 1e-12);
                if dominated && problem.b[i] > problem.b[j] + 1e-9 {
                    return SolveResult::Infeasible {
                        reason: format!(
                            "constraint {i} (target {}) covers a subset of constraint {j} \
                             (target {}) but demands more",
                            problem.b[i], problem.b[j]
                        ),
                    };
                }
            }
        }
    }

    let b_norm = 1.0 + norm(&problem.b);
    let mut lambda = vec![0.0; k];
    let mut w = vec![0.0; n];
    let mut residual = f64::INFINITY;
    // qirana-lint::allow(QL004): this is the solver's own time-limit
    let start = Instant::now(); // meter, checked against opts below

    for iter in 0..opts.max_iterations {
        // Deadline check up front: the loop body is the expensive part
        // (O(k²n)), so this bounds total runtime to limit + one iteration.
        if let Some(limit) = opts.time_limit {
            if start.elapsed() >= limit {
                return SolveResult::Aborted {
                    cause: AbortCause::TimeLimit,
                    iterations: iter,
                    residual,
                };
            }
        }
        // w(λ) and the primal residual r = A w - b.
        for (i, wi) in w.iter_mut().enumerate() {
            let mut e = -1.0;
            for (j, lj) in lambda.iter().enumerate() {
                e -= lj * problem.a[j][i];
            }
            // Clamp the exponent to dodge overflow while preserving
            // monotonicity; overflowing weights only occur far outside the
            // region any feasible instance visits.
            *wi = e.clamp(-700.0, 700.0).exp();
        }
        let mut r = vec![0.0; k];
        for (j, row) in problem.a.iter().enumerate() {
            r[j] = dot(row, &w) - problem.b[j];
        }
        residual = norm(&r) / b_norm;
        // Divergence guard: a non-finite residual means the inputs (or the
        // iterates) left the representable range — no further iteration can
        // recover, so abort instead of looping to the iteration cap.
        if !residual.is_finite() {
            return SolveResult::Aborted {
                cause: AbortCause::NumericalDivergence,
                iterations: iter,
                residual,
            };
        }
        if residual < opts.tolerance {
            return SolveResult::Optimal {
                weights: w,
                iterations: iter,
                residual,
            };
        }

        // Newton direction on the dual: (A diag(w) Aᵀ) d = r, λ ← λ + t d.
        // (∇g = b - A w, so the descent step on g is λ ← λ - t (b - Aw)ᴴ⁻¹
        //  = λ + t H⁻¹ r.)
        let mut h = Matrix::zeros(k);
        for p in 0..k {
            for q in p..k {
                let mut s = 0.0;
                for ((ap, aq), wi) in problem.a[p].iter().zip(&problem.a[q]).zip(&w) {
                    s += ap * wi * aq;
                }
                h.set(p, q, s);
                h.set(q, p, s);
            }
        }
        h.regularize(1e-12 * (1.0 + h.get(0, 0).abs()));
        let dir = match h.solve(&r) {
            Some(d) => d,
            None => r.clone(), // gradient fallback
        };

        // Backtracking line search on the dual objective
        // g(λ) = Σ w_i(λ) + λᵀ b.
        let g0 = w.iter().sum::<f64>() + dot(&lambda, &problem.b);
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..60 {
            let cand: Vec<f64> = lambda.iter().zip(&dir).map(|(l, d)| l + t * d).collect();
            let mut g = dot(&cand, &problem.b);
            for i in 0..n {
                let mut e = -1.0;
                for (j, lj) in cand.iter().enumerate() {
                    e -= lj * problem.a[j][i];
                }
                g += e.clamp(-700.0, 700.0).exp();
            }
            if g < g0 - 1e-18 * g0.abs().max(1.0) {
                lambda = cand;
                accepted = true;
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            // The dual cannot make progress. Either we're at the optimum of
            // an infeasible instance (dual drifting to -∞ blocked by the
            // exponent clamp) or at numerical precision of a feasible one.
            break;
        }

        // Unbounded dual ⇒ primal infeasible.
        if norm(&lambda) > 1e8 {
            return SolveResult::Infeasible {
                reason: format!(
                    "dual iterates diverged (‖λ‖ = {:.2e}) with residual {residual:.2e}; \
                     the price points are inconsistent with this support set",
                    norm(&lambda)
                ),
            };
        }
    }

    if residual < 1e-6 {
        SolveResult::Optimal {
            weights: w,
            iterations: opts.max_iterations,
            residual,
        }
    } else {
        SolveResult::Infeasible {
            reason: format!(
                "no feasible weights found (residual {residual:.2e} after \
                 {} iterations); resample or enlarge the support set",
                opts.max_iterations
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn single_total_constraint_gives_uniform() {
        // max entropy with Σw = 100 over 4 vars → all 25.
        let p = MaxEntProblem {
            a: vec![vec![1.0; 4]],
            b: vec![100.0],
            n: 4,
        };
        let r = solve(&p);
        let w = r.weights().expect("feasible");
        for &wi in w {
            assert_close(wi, 25.0, 1e-6);
        }
    }

    #[test]
    fn price_point_splits_mass() {
        // Σ all 4 = 100, Σ first 2 = 70 → first two 35 each, last two 15.
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0, 1.0, 1.0], vec![1.0, 1.0, 0.0, 0.0]],
            b: vec![100.0, 70.0],
            n: 4,
        };
        let w = solve(&p).weights().unwrap().to_vec();
        assert_close(w[0], 35.0, 1e-6);
        assert_close(w[1], 35.0, 1e-6);
        assert_close(w[2], 15.0, 1e-6);
        assert_close(w[3], 15.0, 1e-6);
    }

    #[test]
    fn overlapping_price_points() {
        // Σ all 3 = 10, Σ {0,1} = 6, Σ {1,2} = 7. Exact: w1 = 3, w0 = 3, w2 = 4.
        let p = MaxEntProblem {
            a: vec![
                vec![1.0, 1.0, 1.0],
                vec![1.0, 1.0, 0.0],
                vec![0.0, 1.0, 1.0],
            ],
            b: vec![10.0, 6.0, 7.0],
            n: 3,
        };
        let w = solve(&p).weights().unwrap().to_vec();
        assert_close(w[0] + w[1], 6.0, 1e-6);
        assert_close(w[1] + w[2], 7.0, 1e-6);
        assert_close(w.iter().sum::<f64>(), 10.0, 1e-6);
    }

    #[test]
    fn infeasible_subset_exceeds_total() {
        // Subset priced above the whole dataset.
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]],
            b: vec![100.0, 150.0],
            n: 3,
        };
        assert!(!solve(&p).is_optimal());
    }

    #[test]
    fn infeasible_negative_target() {
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0]],
            b: vec![-5.0],
            n: 2,
        };
        assert!(!solve(&p).is_optimal());
    }

    #[test]
    fn infeasible_empty_support() {
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0], vec![0.0, 0.0]],
            b: vec![10.0, 3.0],
            n: 2,
        };
        assert!(!solve(&p).is_optimal());
    }

    #[test]
    fn conflicting_equalities_detected() {
        // Same indicator row, two different targets.
        let p = MaxEntProblem {
            a: vec![
                vec![1.0, 1.0, 1.0],
                vec![1.0, 1.0, 0.0],
                vec![1.0, 1.0, 0.0],
            ],
            b: vec![10.0, 4.0, 6.0],
            n: 3,
        };
        assert!(!solve(&p).is_optimal());
    }

    #[test]
    fn zero_priced_subset() {
        // A zero-priced subset forces those weights to ~0 and the rest to
        // carry the full total.
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0, 1.0, 1.0], vec![1.0, 1.0, 0.0, 0.0]],
            b: vec![100.0, 0.0],
            n: 4,
        };
        let w = solve(&p).weights().unwrap().to_vec();
        assert!(w[0] < 1e-6 && w[1] < 1e-6, "zero-priced members: {w:?}");
        assert_close(w[2] + w[3], 100.0, 1e-5);
    }

    #[test]
    fn empty_problem() {
        let p = MaxEntProblem {
            a: vec![],
            b: vec![],
            n: 0,
        };
        assert!(solve(&p).is_optimal());
    }

    #[test]
    fn larger_random_instance_converges() {
        // 6 nested price points over 1000 variables.
        let n = 1000;
        let mut a = vec![vec![1.0; n]];
        let mut b = vec![100.0];
        for j in 1..=6 {
            let cut = n / (j + 1);
            let mut row = vec![0.0; n];
            for r in row.iter_mut().take(cut) {
                *r = 1.0;
            }
            a.push(row);
            b.push(100.0 * cut as f64 / n as f64 * 0.8);
        }
        let p = MaxEntProblem { a, b, n };
        match solve(&p) {
            SolveResult::Optimal {
                weights, residual, ..
            } => {
                assert!(residual < 1e-7);
                assert!(weights.iter().all(|&w| w >= 0.0));
                assert_close(weights.iter().sum::<f64>(), 100.0, 1e-4);
            }
            SolveResult::Infeasible { reason } => panic!("should be feasible: {reason}"),
            SolveResult::Aborted { cause, .. } => panic!("should not abort: {cause:?}"),
        }
    }

    #[test]
    fn contradictory_price_points_are_infeasible_not_garbage() {
        // Two disjoint subsets priced above their union's total: the solver
        // must report Infeasible, never Optimal with nonsense weights.
        let p = MaxEntProblem {
            a: vec![
                vec![1.0, 1.0, 1.0, 1.0],
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
            ],
            b: vec![10.0, 8.0, 9.0],
            n: 4,
        };
        match solve(&p) {
            SolveResult::Infeasible { reason } => {
                assert!(!reason.is_empty());
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn zero_time_limit_aborts_within_bound() {
        // A large feasible instance with an already-expired deadline must
        // return Aborted(TimeLimit) after at most one iteration's work.
        let n = 20_000;
        let p = MaxEntProblem {
            a: vec![vec![1.0; n]],
            b: vec![100.0],
            n,
        };
        let started = Instant::now();
        let r = solve_with(
            &p,
            &SolverOptions::default().with_time_limit(Duration::ZERO),
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "did not terminate promptly"
        );
        match r {
            SolveResult::Aborted {
                cause: AbortCause::TimeLimit,
                iterations,
                ..
            } => assert_eq!(iterations, 0),
            other => panic!("expected TimeLimit abort, got {other:?}"),
        }
    }

    #[test]
    fn tight_time_limit_terminates_promptly_on_hard_instance() {
        // 40 overlapping constraints over 50k variables would churn through
        // many Newton iterations; a 5 ms deadline must cut it short well
        // within the test timeout, and the result must never be Optimal
        // with an unconverged residual.
        let n = 50_000;
        let k = 40;
        let mut a = vec![vec![1.0; n]];
        let mut b = vec![1000.0];
        for j in 1..k {
            let mut row = vec![0.0; n];
            for (i, r) in row.iter_mut().enumerate() {
                if i % (j + 1) == 0 {
                    *r = 1.0;
                }
            }
            a.push(row);
            b.push(1000.0 / (j + 1) as f64 * 0.9);
        }
        let p = MaxEntProblem { a, b, n };
        let started = Instant::now();
        let r = solve_with(
            &p,
            &SolverOptions::default().with_time_limit(Duration::from_millis(5)),
        );
        assert!(started.elapsed() < Duration::from_secs(10), "runaway solve");
        if let SolveResult::Optimal { residual, .. } = &r {
            assert!(*residual < 1e-6, "Optimal claimed with residual {residual}");
        }
    }

    #[test]
    fn non_finite_input_aborts_as_divergence() {
        let p = MaxEntProblem {
            a: vec![vec![1.0, 1.0]],
            b: vec![f64::NAN],
            n: 2,
        };
        match solve(&p) {
            SolveResult::Aborted {
                cause: AbortCause::NumericalDivergence,
                ..
            } => {}
            other => panic!("expected divergence abort, got {other:?}"),
        }
    }

    #[test]
    fn weights_maximize_entropy_vs_alternatives() {
        // With Σ = 1 and no other constraints, uniform has strictly higher
        // entropy than any feasible perturbation — sanity-check the optimum.
        let p = MaxEntProblem {
            a: vec![vec![1.0; 3]],
            b: vec![1.0],
            n: 3,
        };
        let w = solve(&p).weights().unwrap().to_vec();
        let entropy =
            |w: &[f64]| -> f64 { w.iter().filter(|&&x| x > 0.0).map(|&x| -x * x.ln()).sum() };
        let ours = entropy(&w);
        let perturbed = entropy(&[0.5, 0.3, 0.2]);
        assert!(ours > perturbed);
    }
}
