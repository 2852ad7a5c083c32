//! Simulated-timing semantics of the plan lifecycle: what `timings()`
//! reports after repeated `set_pts`, and that `execute` is a batch of
//! one through the `execute_many` path.

use cufinufft::{GpuStageTimings, Method, Plan, TransformType};
use gpu_sim::Device;
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Points};

const M: usize = 3000;

/// A plan on a fresh device, with points generated for its fine grid.
fn setup(ttype: TransformType, modes: &[usize], method: Method) -> (Plan<f32>, Points<f32>) {
    let plan = Plan::<f32>::builder(ttype, modes)
        .eps(1e-5)
        .method(method)
        .build(&Device::v100())
        .unwrap();
    let pts = gen_points(PointDist::Rand, modes.len(), M, plan.fine_grid_shape(), 5);
    (plan, pts)
}

/// Input and output buffers for one transform.
fn io(ttype: TransformType, modes: &[usize]) -> (Vec<Complex<f32>>, Vec<Complex<f32>>) {
    let n: usize = modes.iter().product();
    let (n_in, n_out) = match ttype {
        TransformType::Type1 => (M, n),
        TransformType::Type2 => (n, M),
    };
    (gen_strengths(n_in, 6), vec![Complex::ZERO; n_out])
}

/// Bit-level equality of every field: `{:?}` prints each f64 in its
/// shortest round-trip form, so distinct values print differently.
fn assert_bit_equal(a: &GpuStageTimings, b: &GpuStageTimings) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

const CASES: [(TransformType, &[usize], Method); 3] = [
    (TransformType::Type1, &[64, 64], Method::Sm),
    (TransformType::Type1, &[16, 16, 16], Method::Gm),
    (TransformType::Type2, &[16, 16, 16], Method::GmSort),
];

#[test]
fn repeated_set_pts_reports_the_same_timings() {
    for (ttype, modes, method) in CASES {
        let (mut plan, pts) = setup(ttype, modes, method);
        let (input, mut out) = io(ttype, modes);
        let mut cycle = || {
            plan.set_pts(&pts).unwrap();
            plan.execute(&input, &mut out).unwrap();
            plan.timings()
        };
        let first = cycle();
        let second = cycle();
        // the second point set's allocation replaces the first's
        assert_bit_equal(&first, &second);
        assert!(first.alloc > 0.0);
    }
}

#[test]
fn execute_is_a_batch_of_one() {
    for (ttype, modes, method) in CASES {
        let (input, mut single) = io(ttype, modes);
        let mut batched = single.clone();
        let (mut a, pts) = setup(ttype, modes, method);
        a.set_pts(&pts).unwrap();
        a.execute(&input, &mut single).unwrap();
        let (mut b, _) = setup(ttype, modes, method);
        b.set_pts(&pts).unwrap();
        b.execute_many(&input, &mut batched).unwrap();
        for (x, y) in single.iter().zip(&batched) {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits())
            );
        }
        assert_bit_equal(&a.timings(), &b.timings());
        assert_eq!((a.timings().batches, a.timings().pipe_wall), (1, 0.0));
        assert_eq!(a.device().clock().to_bits(), b.device().clock().to_bits());
    }
}
