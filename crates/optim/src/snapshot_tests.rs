//! Unit tests of [`Optimizer::snapshot`], [`Optimizer::snapshot_into`]
//! and [`Optimizer::restore`]. The exactness property test over random
//! states lives in `tests/proptests.rs`; these cover the mismatch, mid-run
//! and capture-into-an-old-snapshot semantics.

use crate::{
    Adam, ConjugateGradient, NesterovOptimizer, Optimizer, OptimizerSnapshot, SgdMomentum,
};

fn engines() -> Vec<Box<dyn Optimizer<f64>>> {
    vec![
        Box::new(NesterovOptimizer::new(4, 0.05)),
        Box::new(Adam::new(4, 0.1).with_decay(0.99)),
        Box::new(SgdMomentum::new(4, 0.02).with_decay(0.995)),
        Box::new(ConjugateGradient::new(4, 0.05)),
    ]
}

#[test]
fn snapshot_restore_resumes_identical_trajectory() {
    for mut engine in engines() {
        let (mut f, _) = crate::tests::quadratic_bowl();
        let mut p = vec![0.0; 4];
        for _ in 0..7 {
            engine.step(&mut f, &mut p);
        }
        let snap = engine.snapshot();
        let p_at_snap = p.clone();

        // Reference trajectory: continue without interruption.
        let mut p_ref = p.clone();
        for _ in 0..9 {
            engine.step(&mut f, &mut p_ref);
        }

        // Perturb the engine thoroughly, then restore.
        for _ in 0..5 {
            engine.step(&mut f, &mut p);
        }
        engine.reset();
        engine.restore(&snap).expect("same engine kind");
        let mut p_restored = p_at_snap;
        for _ in 0..9 {
            engine.step(&mut f, &mut p_restored);
        }

        assert_eq!(
            p_ref,
            p_restored,
            "{}: restored trajectory diverged",
            engine.name()
        );
    }
}

#[test]
fn restore_rejects_foreign_snapshot() {
    let donor = NesterovOptimizer::<f64>::new(4, 0.05);
    let snap = donor.snapshot();
    assert_eq!(snap.engine(), "nesterov");

    let mut adam = Adam::<f64>::new(4, 0.1);
    let before = adam.snapshot();
    let err = adam.restore(&snap).expect_err("kind mismatch");
    assert_eq!(err.snapshot_engine, "nesterov");
    assert_eq!(err.target_engine, "adam");
    // The failed restore must not have touched the optimizer.
    assert_eq!(adam.snapshot(), before);
}

#[test]
fn snapshot_engine_matches_optimizer_name() {
    for engine in engines() {
        assert_eq!(engine.snapshot().engine(), engine.name());
    }
}

#[test]
fn fresh_snapshot_equals_reset_state() {
    for mut engine in engines() {
        let fresh = engine.snapshot();
        let (mut f, _) = crate::tests::quadratic_bowl();
        let mut p = vec![0.5; 4];
        for _ in 0..3 {
            engine.step(&mut f, &mut p);
        }
        assert_ne!(
            engine.snapshot(),
            fresh,
            "{} state should move",
            engine.name()
        );
        engine.reset();
        assert_eq!(engine.snapshot(), fresh, "{} reset != fresh", engine.name());
    }
}

#[test]
fn snapshot_is_engine_tagged() {
    let snaps = [
        NesterovOptimizer::<f64>::new(2, 0.1).snapshot(),
        Adam::<f64>::new(2, 0.1).snapshot(),
        SgdMomentum::<f64>::new(2, 0.1).snapshot(),
        ConjugateGradient::<f64>::new(2, 0.1).snapshot(),
    ];
    let names: Vec<_> = snaps.iter().map(OptimizerSnapshot::engine).collect();
    assert_eq!(
        names,
        ["nesterov", "adam", "sgd-momentum", "conjugate-gradient"]
    );
}

/// `sum (p_i - 1)^2` at any length.
fn bowl(p: &[f64], g: &mut [f64]) -> f64 {
    let mut cost = 0.0;
    for (pi, gi) in p.iter().zip(g.iter_mut()) {
        cost += (pi - 1.0) * (pi - 1.0);
        *gi = 2.0 * (pi - 1.0);
    }
    cost
}

fn engines_of(n: usize) -> Vec<Box<dyn Optimizer<f64>>> {
    vec![
        Box::new(NesterovOptimizer::new(n, 0.05)),
        Box::new(Adam::new(n, 0.1).with_decay(0.99)),
        Box::new(SgdMomentum::new(n, 0.02).with_decay(0.995)),
        Box::new(ConjugateGradient::new(n, 0.05)),
    ]
}

fn stepped(n: usize, steps: usize) -> Vec<Box<dyn Optimizer<f64>>> {
    let mut engines = engines_of(n);
    for engine in &mut engines {
        let mut p = vec![0.0; n];
        for _ in 0..steps {
            engine.step(&mut bowl, &mut p);
        }
    }
    engines
}

/// The address of the snapshot's first vector, if it holds one.
fn first_vec(snap: &OptimizerSnapshot<f64>) -> Option<*const f64> {
    snap.vectors().next().map(<[f64]>::as_ptr)
}

#[test]
fn snapshot_into_round_trips_over_any_previous_snapshot() {
    // Overwritten targets: fresh and stepped snapshots of every engine kind,
    // at the engines' length and at a longer one.
    let targets: Vec<OptimizerSnapshot<f64>> = [engines_of(4), stepped(4, 3), stepped(9, 4)]
        .iter()
        .flatten()
        .map(|e| e.snapshot())
        .collect();
    for (kind, engine) in stepped(4, 5).into_iter().enumerate() {
        let want = engine.snapshot();
        for target in &targets {
            let mut out = target.clone();
            let reusable = out.engine() == engine.name() && first_vec(&out).is_some();
            let before = first_vec(&out);
            engine.snapshot_into(&mut out);
            assert_eq!(out, want, "{} over {}", engine.name(), target.engine());
            if reusable && first_vec(&want).is_some() {
                assert_eq!(first_vec(&out), before, "{} reallocated", engine.name());
            }
            // The captured state restores into a fresh engine of its kind.
            let mut restored = engines_of(4).swap_remove(kind);
            restored.restore(&out).expect("same engine kind");
            assert_eq!(restored.snapshot(), want, "{}", engine.name());
        }
    }
}
