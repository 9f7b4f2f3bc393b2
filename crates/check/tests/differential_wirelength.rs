//! Differential suite: optimized wirelength kernels vs definition-oracles.
//!
//! Every strategy of every wirelength operator is compared against the
//! slow per-net/per-axis oracle — forward cost AND analytic gradient — on
//! a normal generated design, at several gammas, serial and parallel, and
//! on the adversarial designs (degenerate nets, coincident pins, zero-area
//! cells).

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_check::{hpwl_oracle, lse_oracle, wa_oracle, WlOracle};
use dp_gen::adversarial::{adversarial_design, AdversarialCase};
use dp_gen::GeneratorConfig;
use dp_netlist::{Netlist, Placement};
use dp_wirelength::{HpwlOp, LseWirelength, WaStrategy, WaWirelength};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn design(seed: u64) -> (Netlist<f64>, Placement<f64>) {
    let d = GeneratorConfig::new("wl-diff", 120, 140)
        .with_seed(seed)
        .generate::<f64>()
        .expect("valid design");
    let region = d.netlist.region();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = d.fixed_positions.clone();
    for c in 0..d.netlist.num_movable() {
        p.x[c] = region.xl + rng.gen_range(0.05..0.95) * region.width();
        p.y[c] = region.yl + rng.gen_range(0.05..0.95) * region.height();
    }
    (d.netlist, p)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

fn assert_grad_close(tag: &str, oracle: &WlOracle, grad: &Gradient<f64>, n_mov: usize, tol: f64) {
    for c in 0..n_mov {
        let scale = oracle.grad_x[c]
            .abs()
            .max(oracle.grad_y[c].abs())
            .max(1.0);
        assert!(
            (oracle.grad_x[c] - grad.x[c]).abs() / scale < tol,
            "{tag}: cell {c} grad_x oracle {} vs kernel {}",
            oracle.grad_x[c],
            grad.x[c]
        );
        assert!(
            (oracle.grad_y[c] - grad.y[c]).abs() / scale < tol,
            "{tag}: cell {c} grad_y oracle {} vs kernel {}",
            oracle.grad_y[c],
            grad.y[c]
        );
    }
}

#[test]
fn hpwl_operator_matches_oracle() {
    let (nl, p) = design(11);
    let mut ctx = ExecCtx::serial();
    let kernel = HpwlOp::new().forward(&nl, &p, &mut ctx);
    let oracle = hpwl_oracle(&nl, &p);
    assert!(rel(kernel, oracle) < 1e-12, "kernel {kernel} vs oracle {oracle}");
    // And against the independent free function used by the GP loop.
    assert!(rel(dp_netlist::hpwl(&nl, &p), oracle) < 1e-12);
}

#[test]
fn wa_all_strategies_match_oracle_cost_and_gradient() {
    let (nl, p) = design(12);
    let n_mov = nl.num_movable();
    for gamma in [0.8, 4.0] {
        let oracle = wa_oracle(&nl, &p, gamma);
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            for threads in [1usize, 4] {
                let mut ctx = ExecCtx::new(threads);
                let mut op = WaWirelength::<f64>::new(strategy, gamma);
                let mut grad = Gradient::zeros(nl.num_cells());
                let cost = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
                let tag = format!("wa {strategy:?} gamma {gamma} threads {threads}");
                assert!(
                    rel(cost, oracle.cost) < 1e-9,
                    "{tag}: cost {cost} vs oracle {}",
                    oracle.cost
                );
                assert_grad_close(&tag, &oracle, &grad, n_mov, 1e-8);
            }
        }
    }
}

#[test]
fn lse_matches_oracle_cost_and_gradient() {
    let (nl, p) = design(13);
    let n_mov = nl.num_movable();
    for gamma in [0.8, 4.0] {
        let oracle = lse_oracle(&nl, &p, gamma);
        for threads in [1usize, 4] {
            let mut ctx = ExecCtx::new(threads);
            let mut op = LseWirelength::<f64>::new(gamma);
            let mut grad = Gradient::zeros(nl.num_cells());
            let cost = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
            let tag = format!("lse gamma {gamma} threads {threads}");
            assert!(
                rel(cost, oracle.cost) < 1e-9,
                "{tag}: cost {cost} vs oracle {}",
                oracle.cost
            );
            assert_grad_close(&tag, &oracle, &grad, n_mov, 1e-8);
        }
    }
}

/// The oracle agreement must survive the adversarial designs: degenerate
/// nets contribute zero, coincident pins must not produce NaN, zero-area
/// cells still carry pins.
#[test]
fn kernels_match_oracle_on_adversarial_designs() {
    for case in [
        AdversarialCase::DegenerateNets,
        AdversarialCase::CoincidentPins,
        AdversarialCase::ZeroAreaCells,
    ] {
        let d = adversarial_design::<f64>(case, 5).expect("valid adversarial design");
        let (nl, p) = (&d.design.netlist, &d.placement);
        let mut ctx = ExecCtx::serial();

        let hp = HpwlOp::new().forward(nl, p, &mut ctx);
        let hp_oracle = hpwl_oracle(nl, p);
        assert!(
            rel(hp, hp_oracle) < 1e-12,
            "{case}: hpwl {hp} vs oracle {hp_oracle}"
        );

        let gamma = 1.5;
        let wa_ref = wa_oracle(nl, p, gamma);
        assert!(wa_ref.cost.is_finite(), "{case}: oracle cost not finite");
        for strategy in [WaStrategy::NetByNet, WaStrategy::Atomic, WaStrategy::Merged] {
            let mut op = WaWirelength::<f64>::new(strategy, gamma);
            let mut grad = Gradient::zeros(nl.num_cells());
            let cost = op.forward_backward(nl, p, &mut grad, &mut ctx);
            assert!(cost.is_finite(), "{case}: {strategy:?} cost not finite");
            assert!(
                rel(cost, wa_ref.cost) < 1e-9,
                "{case} {strategy:?}: {cost} vs {}",
                wa_ref.cost
            );
            assert!(
                grad.x.iter().chain(&grad.y).all(|g| g.is_finite()),
                "{case} {strategy:?}: non-finite gradient"
            );
        }

        let lse_ref = lse_oracle(nl, p, gamma);
        let mut op = LseWirelength::<f64>::new(gamma);
        let mut grad = Gradient::zeros(nl.num_cells());
        let cost = op.forward_backward(nl, p, &mut grad, &mut ctx);
        assert!(
            rel(cost, lse_ref.cost) < 1e-9,
            "{case} lse: {cost} vs {}",
            lse_ref.cost
        );
    }
}

/// Pin offsets must shift the oracle and the kernels identically — a net
/// whose pins sit away from the cell centers is the common case in real
/// designs.
#[test]
fn pin_offsets_are_honored() {
    let mut b = dp_netlist::NetlistBuilder::new(0.0, 0.0, 50.0, 50.0);
    let a = b.add_movable_cell(2.0, 2.0);
    let c = b.add_movable_cell(2.0, 2.0);
    let d = b.add_fixed_cell(4.0, 4.0);
    b.add_net(1.5, vec![(a, 0.9, -0.4), (c, -0.3, 0.8), (d, 1.0, 1.0)])
        .expect("valid");
    let nl = b.build().expect("valid");
    let mut p = Placement::zeros(nl.num_cells());
    p.x = vec![10.0, 30.0, 25.0];
    p.y = vec![20.0, 12.0, 40.0];

    let mut ctx = ExecCtx::serial();
    assert!(rel(HpwlOp::new().forward(&nl, &p, &mut ctx), hpwl_oracle(&nl, &p)) < 1e-12);

    let oracle = wa_oracle(&nl, &p, 1.0);
    let mut op = WaWirelength::<f64>::new(WaStrategy::Merged, 1.0);
    let mut grad = Gradient::zeros(nl.num_cells());
    let cost = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
    assert!(rel(cost, oracle.cost) < 1e-12);
    assert_grad_close("pin-offsets", &oracle, &grad, nl.num_movable(), 1e-10);
}

/// 300-pin nets among small ones, 600 nets so that reduction chunks hold two
/// nets each: the merged kernel's per-chunk `a±` scratch must grow to the
/// big net when it comes second in its chunk (net 101) and serve the small
/// net after it from a prefix of the same buffer when it comes first
/// (net 400).
#[test]
fn wa_merged_matches_oracle_with_300_pin_nets() {
    let mut rng = StdRng::seed_from_u64(300);
    let mut b = dp_netlist::NetlistBuilder::new(0.0, 0.0, 120.0, 120.0);
    let cells: Vec<_> = (0..90).map(|_| b.add_movable_cell(2.0, 2.0)).collect();
    for i in 0..600 {
        let degree = if i == 101 || i == 400 { 300 } else { 2 + i % 3 };
        let pins = (0..degree)
            .map(|_| {
                let cell = cells[rng.gen_range(0..cells.len())];
                (cell, rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            })
            .collect();
        b.add_net(rng.gen_range(0.5..2.5), pins).expect("valid");
    }
    let nl = b.build().expect("valid");
    let mut p = Placement::zeros(nl.num_cells());
    for c in 0..nl.num_cells() {
        p.x[c] = rng.gen_range(5.0..115.0);
        p.y[c] = rng.gen_range(5.0..115.0);
    }
    for gamma in [0.5, 6.0] {
        let oracle = wa_oracle(&nl, &p, gamma);
        for threads in [1usize, 4] {
            let mut ctx = ExecCtx::new(threads);
            let mut op = WaWirelength::<f64>::new(WaStrategy::Merged, gamma);
            let mut grad = Gradient::zeros(nl.num_cells());
            let cost = op.forward_backward(&nl, &p, &mut grad, &mut ctx);
            let tag = format!("300-pin nets, gamma {gamma}, threads {threads}");
            assert!(
                rel(cost, oracle.cost) < 1e-9,
                "{tag}: cost {cost} vs oracle {}",
                oracle.cost
            );
            let forward_only = op.forward(&nl, &p, &mut ctx);
            assert!(rel(forward_only, oracle.cost) < 1e-9, "{tag}: forward");
            assert_grad_close(&tag, &oracle, &grad, nl.num_movable(), 1e-8);
        }
    }
}
