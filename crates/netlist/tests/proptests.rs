//! Property-based invariants of the CSR hypergraph: pin back-references,
//! partition completeness, net-by-net pin numbering, degree accounting, and
//! HPWL translation invariance, on arbitrary generated designs.

use dp_bookshelf::{read_design, write_design};
use dp_gen::adversarial::{adversarial_design, AdversarialCase};
use dp_gen::GeneratorConfig;
use dp_netlist::{hpwl, Netlist, Placement};
use dreamplace_core::sanitize_design;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `net_pins(e)[k]` is pin `net_pin_range(e).start + k`, and the ranges
/// tile `0..num_pins()` in net order.
fn assert_pins_numbered_net_by_net(nl: &Netlist<f64>, what: &str) -> Result<(), String> {
    let mut next = 0usize;
    for net in nl.nets() {
        let range = nl.net_pin_range(net);
        prop_assert_eq!(range.start, next, "{}: ranges must tile in net order", what);
        prop_assert_eq!(range.len(), nl.net_pins(net).len(), "{}", what);
        for (k, pin) in nl.net_pins(net).iter().enumerate() {
            prop_assert_eq!(
                pin.index(),
                range.start + k,
                "{}: net {}",
                what,
                net.index()
            );
        }
        next = range.end;
    }
    prop_assert_eq!(next, nl.num_pins(), "{}: ranges must cover every pin", what);
    Ok(())
}

fn design(seed: u64, cells: usize) -> (Netlist<f64>, Placement<f64>) {
    let d = GeneratorConfig::new("prop-nl", cells, cells + cells / 7)
        .with_seed(seed)
        .generate::<f64>()
        .expect("valid");
    let region = d.netlist.region();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e5);
    let mut p = d.fixed_positions.clone();
    for c in 0..d.netlist.num_movable() {
        p.x[c] = region.xl + rng.gen_range(0.0..1.0) * region.width();
        p.y[c] = region.yl + rng.gen_range(0.0..1.0) * region.height();
    }
    (d.netlist, p)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every pin is referenced by exactly one cell and exactly one net,
    /// and the back-references agree with the forward lists.
    #[test]
    fn pin_lists_are_consistent_partitions(seed in 0u64..1000, cells in 20usize..200) {
        let (nl, _) = design(seed, cells);
        let n_pins = nl.num_pins();

        let mut seen_by_cell = vec![0usize; n_pins];
        for cell in nl.cells() {
            for &pin in nl.cell_pins(cell) {
                prop_assert_eq!(nl.pin_cell(pin), cell, "cell back-reference");
                seen_by_cell[pin.index()] += 1;
            }
        }
        prop_assert!(seen_by_cell.iter().all(|&c| c == 1), "cell pin lists not a partition");

        let mut seen_by_net = vec![0usize; n_pins];
        for net in nl.nets() {
            for &pin in nl.net_pins(net) {
                prop_assert_eq!(nl.pin_net(pin), net, "net back-reference");
                seen_by_net[pin.index()] += 1;
            }
        }
        prop_assert!(seen_by_net.iter().all(|&c| c == 1), "net pin lists not a partition");
    }

    /// Pins are numbered net by net on every way a `Netlist` comes to be:
    /// the builder (generator, with degenerate nets), a Bookshelf round
    /// trip, a sanitizer rebuild, and the size/weight copies.
    #[test]
    fn pins_are_numbered_net_by_net(seed in 0u64..1000, cells in 20usize..200) {
        let (nl, p) = design(seed, cells);
        assert_pins_numbered_net_by_net(&nl, "generator")?;

        let degenerate = adversarial_design::<f64>(AdversarialCase::DegenerateNets, seed)
            .expect("valid");
        assert_pins_numbered_net_by_net(&degenerate.design.netlist, "degenerate nets")?;

        let dir = std::env::temp_dir()
            .join(format!("dp-netlist-prop-{seed}-{cells}-{}", std::process::id()));
        write_design(&dir, "pins", &nl, &p).expect("write");
        let back = read_design::<f64>(&dir.join("pins.aux"));
        std::fs::remove_dir_all(&dir).ok();
        assert_pins_numbered_net_by_net(&back.expect("reparse").netlist, "bookshelf")?;

        // Quartered widths leave pin offsets outside their cells, which the
        // sanitizer repairs by rebuilding the netlist.
        let shrunk = nl.with_cell_sizes(
            nl.cell_widths().iter().map(|w| w * 0.25).collect(),
            nl.cell_heights().to_vec(),
        );
        assert_pins_numbered_net_by_net(&shrunk, "with_cell_sizes")?;
        let (_, repaired) = sanitize_design(&shrunk, &p);
        let (rebuilt, _) = repaired.expect("clamped pin offsets force a rebuild");
        assert_pins_numbered_net_by_net(&rebuilt, "sanitize rebuild")?;

        let reweighted = nl.with_net_weights(nl.nets().map(|e| nl.net_weight(e) * 2.0).collect());
        assert_pins_numbered_net_by_net(&reweighted, "with_net_weights")?;
    }

    /// Degree sums account for every pin, from both sides of the bipartite
    /// incidence.
    #[test]
    fn degree_sums_match_pin_count(seed in 0u64..1000, cells in 20usize..200) {
        let (nl, _) = design(seed, cells);
        let by_net: usize = nl.nets().map(|e| nl.net_degree(e)).sum();
        let by_cell: usize = nl.cells().map(|c| nl.cell_pins(c).len()).sum();
        prop_assert_eq!(by_net, nl.num_pins());
        prop_assert_eq!(by_cell, nl.num_pins());
        // net_degree and net_pins agree.
        for net in nl.nets() {
            prop_assert_eq!(nl.net_degree(net), nl.net_pins(net).len());
        }
    }

    /// HPWL is translation invariant: shifting every cell by the same
    /// offset leaves every net's bounding box size unchanged.
    #[test]
    fn hpwl_is_translation_invariant(
        seed in 0u64..1000,
        cells in 20usize..200,
        dx in -50.0f64..50.0,
        dy in -50.0f64..50.0,
    ) {
        let (nl, p) = design(seed, cells);
        let base = hpwl(&nl, &p);
        let mut q = p.clone();
        for v in &mut q.x { *v += dx; }
        for v in &mut q.y { *v += dy; }
        let shifted = hpwl(&nl, &q);
        prop_assert!(
            (base - shifted).abs() <= 1e-9 * base.max(1.0),
            "hpwl {base} -> {shifted} under translation ({dx}, {dy})"
        );
    }

    /// HPWL scales linearly with net weights.
    #[test]
    fn hpwl_scales_with_net_weights(seed in 0u64..1000, cells in 20usize..120, k in 0.1f64..5.0) {
        let (nl, p) = design(seed, cells);
        let scaled = nl.with_net_weights(
            nl.nets().map(|e| nl.net_weight(e) * k).collect(),
        );
        let a = hpwl(&nl, &p);
        let b = hpwl(&scaled, &p);
        prop_assert!((b - k * a).abs() <= 1e-9 * (k * a).abs().max(1.0), "{b} vs {}", k * a);
    }
}
