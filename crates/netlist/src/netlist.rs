//! The immutable placement hypergraph and its validated builder.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use dp_num::Float;

use crate::geometry::Rect;
use crate::rows::RowGrid;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Creates an id from a raw index.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(index as u32)
            }

            /// The raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of a cell (movable or fixed).
    CellId
);
id_type!(
    /// Identifier of a net (hyperedge).
    NetId
);
id_type!(
    /// Identifier of a pin (a net-cell incidence).
    PinId
);

/// Error produced while building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net referenced a cell id that was never added.
    UnknownCell {
        /// The offending cell index.
        cell: usize,
    },
    /// A net with fewer than two pins carries no wirelength information.
    DegenerateNet {
        /// The offending net index.
        net: usize,
        /// Its pin count.
        pins: usize,
    },
    /// The design has no movable cells, so there is nothing to place.
    NoMovableCells,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownCell { cell } => write!(f, "net references unknown cell {cell}"),
            NetlistError::DegenerateNet { net, pins } => {
                write!(f, "net {net} has {pins} pin(s); at least 2 are required")
            }
            NetlistError::NoMovableCells => write!(f, "design contains no movable cells"),
        }
    }
}

impl Error for NetlistError {}

/// Summary statistics of a netlist, in the units the paper's tables use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistStats {
    /// Total number of cells (movable + fixed).
    pub num_cells: usize,
    /// Number of movable cells.
    pub num_movable: usize,
    /// Number of nets.
    pub num_nets: usize,
    /// Number of pins.
    pub num_pins: usize,
    /// Average net degree (`pins / nets`).
    pub avg_net_degree: f64,
    /// Total movable cell area over placeable area.
    pub utilization: f64,
}

/// An immutable placement hypergraph in CSR form.
///
/// Cells `0..num_movable()` are movable; the rest are fixed (macros, pads).
/// All arrays are indexed by the raw ids of [`CellId`] / [`NetId`] /
/// [`PinId`].
///
/// **Pins are numbered net by net**: [`NetlistBuilder::build`] — the only
/// constructor — hands out pin ids in net order, so the pins of net `e` are
/// exactly the ids in [`Netlist::net_pin_range`]`(e)`, the ranges tile
/// `0..num_pins()` in net order, and any per-pin array can be sliced by
/// that range to get the net's pins contiguously.
///
/// Construct via [`NetlistBuilder`]; see the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Netlist<T> {
    region: Rect<T>,
    rows: Option<RowGrid<T>>,

    cell_w: Vec<T>,
    cell_h: Vec<T>,
    num_movable: usize,

    net_weight: Vec<T>,
    // CSR: pins of each net.
    net2pin_start: Vec<u32>,
    net_pins: Vec<PinId>,
    // CSR: pins of each cell.
    cell2pin_start: Vec<u32>,
    cell_pins: Vec<PinId>,

    pin_cell: Vec<CellId>,
    pin_net: Vec<NetId>,
    pin_dx: Vec<T>,
    pin_dy: Vec<T>,
}

impl<T: Float> Netlist<T> {
    /// The placement region.
    pub fn region(&self) -> Rect<T> {
        self.region
    }

    /// The standard-cell row grid, when one was attached.
    pub fn rows(&self) -> Option<&RowGrid<T>> {
        self.rows.as_ref()
    }

    /// Total number of cells (movable then fixed).
    pub fn num_cells(&self) -> usize {
        self.cell_w.len()
    }

    /// Number of movable cells; ids `0..num_movable()` are movable.
    pub fn num_movable(&self) -> usize {
        self.num_movable
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_weight.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pin_cell.len()
    }

    /// `true` when `cell` is movable.
    #[inline]
    pub fn is_movable(&self, cell: CellId) -> bool {
        cell.index() < self.num_movable
    }

    /// Width of `cell`.
    #[inline]
    pub fn cell_width(&self, cell: CellId) -> T {
        self.cell_w[cell.index()]
    }

    /// Raw width array, indexed by cell id.
    pub fn cell_widths(&self) -> &[T] {
        &self.cell_w
    }

    /// Raw height array, indexed by cell id.
    pub fn cell_heights(&self) -> &[T] {
        &self.cell_h
    }

    /// Weight of `net`.
    #[inline]
    pub fn net_weight(&self, net: NetId) -> T {
        self.net_weight[net.index()]
    }

    /// Pins of `net`.
    #[inline]
    pub fn net_pins(&self, net: NetId) -> &[PinId] {
        &self.net_pins[self.net_pin_range(net)]
    }

    /// Raw pin ids of `net` as one contiguous range: `net_pins(net)[k]` is
    /// pin `net_pin_range(net).start + k` (pins are numbered net by net,
    /// see the type docs). Slice per-pin arrays with it instead of indexing
    /// them through [`Netlist::net_pins`].
    #[inline]
    pub fn net_pin_range(&self, net: NetId) -> Range<usize> {
        let i = net.index();
        self.net2pin_start[i] as usize..self.net2pin_start[i + 1] as usize
    }

    /// Degree (pin count) of `net`.
    #[inline]
    pub fn net_degree(&self, net: NetId) -> usize {
        self.net_pin_range(net).len()
    }

    /// Pins of `cell`.
    #[inline]
    pub fn cell_pins(&self, cell: CellId) -> &[PinId] {
        let i = cell.index();
        &self.cell_pins[self.cell2pin_start[i] as usize..self.cell2pin_start[i + 1] as usize]
    }

    /// Cell owning `pin`.
    #[inline]
    pub fn pin_cell(&self, pin: PinId) -> CellId {
        self.pin_cell[pin.index()]
    }

    /// Net owning `pin`.
    #[inline]
    pub fn pin_net(&self, pin: PinId) -> NetId {
        self.pin_net[pin.index()]
    }

    /// Pin offset from the owning cell's center.
    #[inline]
    pub fn pin_offset(&self, pin: PinId) -> (T, T) {
        (self.pin_dx[pin.index()], self.pin_dy[pin.index()])
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + '_ {
        (0..self.num_nets()).map(NetId::new)
    }

    /// Iterates over all cell ids.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = CellId> + '_ {
        (0..self.num_cells()).map(CellId::new)
    }

    /// Total area of movable cells.
    pub fn total_movable_area(&self) -> T {
        (0..self.num_movable)
            .map(|i| self.cell_w[i] * self.cell_h[i])
            .sum()
    }

    /// Returns a copy of this netlist with different cell sizes — used by
    /// routability-driven placement, where cells are *inflated* in
    /// congested regions (paper §III-F) for density purposes while their
    /// real footprints stay unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the cell count.
    pub fn with_cell_sizes(&self, widths: Vec<T>, heights: Vec<T>) -> Netlist<T> {
        assert_eq!(widths.len(), self.num_cells(), "width count mismatch");
        assert_eq!(heights.len(), self.num_cells(), "height count mismatch");
        let mut out = self.clone();
        out.cell_w = widths;
        out.cell_h = heights;
        out
    }

    /// Returns a copy of this netlist with different net weights — used by
    /// timing-driven placement, where critical nets are up-weighted between
    /// placement iterations (paper §III-G).
    ///
    /// # Panics
    ///
    /// Panics if the vector does not match the net count.
    pub fn with_net_weights(&self, weights: Vec<T>) -> Netlist<T> {
        assert_eq!(weights.len(), self.num_nets(), "net weight count mismatch");
        let mut out = self.clone();
        out.net_weight = weights;
        out
    }

    /// Computes the summary statistics reported by the bench harness.
    pub fn stats(&self) -> NetlistStats {
        let area: T = self.total_movable_area();
        NetlistStats {
            num_cells: self.num_cells(),
            num_movable: self.num_movable,
            num_nets: self.num_nets(),
            num_pins: self.num_pins(),
            avg_net_degree: self.num_pins() as f64 / self.num_nets().max(1) as f64,
            utilization: area.to_f64() / self.region.area().to_f64(),
        }
    }
}

/// Pins of one net under construction: `(cell, dx, dy)` offsets.
type PendingPins<T> = Vec<(BuilderCell, T, T)>;

/// Builder for [`Netlist`], validating ids and degeneracy on the way.
#[derive(Debug, Clone)]
pub struct NetlistBuilder<T> {
    region: Rect<T>,
    rows: Option<RowGrid<T>>,
    movable_w: Vec<T>,
    movable_h: Vec<T>,
    fixed_w: Vec<T>,
    fixed_h: Vec<T>,
    /// Nets as (weight, [(builder cell key, dx, dy)]).
    nets: Vec<(T, PendingPins<T>)>,
    allow_degenerate: bool,
}

/// Cell handle issued by the builder; resolves to a final [`CellId`] at
/// [`NetlistBuilder::build`] time (fixed cells are renumbered after movable
/// ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuilderCell {
    fixed: bool,
    idx: u32,
}

impl BuilderCell {
    /// Index into the movable (or fixed) sequence, before renumbering.
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

impl<T: Float> NetlistBuilder<T> {
    /// Starts a builder for the region `[xl, xh] x [yl, yh]`.
    ///
    /// # Panics
    ///
    /// Panics if the region is degenerate.
    pub fn new(xl: T, yl: T, xh: T, yh: T) -> Self {
        Self {
            region: Rect::new(xl, yl, xh, yh),
            rows: None,
            movable_w: Vec::new(),
            movable_h: Vec::new(),
            fixed_w: Vec::new(),
            fixed_h: Vec::new(),
            nets: Vec::new(),
            allow_degenerate: false,
        }
    }

    /// Attaches a standard-cell row grid (used by legalization).
    pub fn with_rows(mut self, rows: RowGrid<T>) -> Self {
        self.rows = Some(rows);
        self
    }

    /// Permits nets with fewer than two pins. Such nets are kept in the
    /// final netlist (so external formats round-trip without silently
    /// changing net counts); wirelength operators treat them as zero.
    /// Off by default; the synthetic generator and the Bookshelf parser
    /// enable it.
    pub fn allow_degenerate_nets(mut self, allow: bool) -> Self {
        self.allow_degenerate = allow;
        self
    }

    /// Adds a movable cell of the given size, returning its handle.
    pub fn add_movable_cell(&mut self, w: T, h: T) -> BuilderCell {
        self.movable_w.push(w);
        self.movable_h.push(h);
        BuilderCell {
            fixed: false,
            idx: (self.movable_w.len() - 1) as u32,
        }
    }

    /// Adds a fixed cell (macro / pad) of the given size, returning its
    /// handle. Fixed cells receive ids after all movable cells.
    pub fn add_fixed_cell(&mut self, w: T, h: T) -> BuilderCell {
        self.fixed_w.push(w);
        self.fixed_h.push(h);
        BuilderCell {
            fixed: true,
            idx: (self.fixed_w.len() - 1) as u32,
        }
    }

    /// Adds a net of weight `weight` with pins `(cell, dx, dy)` where
    /// `(dx, dy)` is the pin offset from the cell center.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DegenerateNet`] for nets with fewer than two
    /// pins unless [`NetlistBuilder::allow_degenerate_nets`] was enabled.
    pub fn add_net(&mut self, weight: T, pins: PendingPins<T>) -> Result<NetId, NetlistError> {
        if pins.len() < 2 && !self.allow_degenerate {
            return Err(NetlistError::DegenerateNet {
                net: self.nets.len(),
                pins: pins.len(),
            });
        }
        self.nets.push((weight, pins));
        Ok(NetId::new(self.nets.len() - 1))
    }

    /// Number of movable cells added so far.
    pub fn num_movable(&self) -> usize {
        self.movable_w.len()
    }

    /// Finalizes the netlist, packing CSR arrays.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoMovableCells`] when no movable cell was
    /// added.
    pub fn build(self) -> Result<Netlist<T>, NetlistError> {
        let n_mov = self.movable_w.len();
        if n_mov == 0 {
            return Err(NetlistError::NoMovableCells);
        }
        let mut cell_w = self.movable_w;
        let mut cell_h = self.movable_h;
        cell_w.extend_from_slice(&self.fixed_w);
        cell_h.extend_from_slice(&self.fixed_h);
        let n_cells = cell_w.len();

        let resolve = |c: BuilderCell| -> CellId {
            if c.fixed {
                CellId::new(n_mov + c.idx as usize)
            } else {
                CellId::new(c.idx as usize)
            }
        };

        // Degenerate nets (only present when allowed) are kept: they carry
        // no wirelength but dropping them would silently change net counts.
        let nets = self.nets;

        let n_pins: usize = nets.iter().map(|(_, p)| p.len()).sum();
        let mut net_weight = Vec::with_capacity(nets.len());
        let mut net2pin_start = Vec::with_capacity(nets.len() + 1);
        let mut net_pins = Vec::with_capacity(n_pins);
        let mut pin_cell = Vec::with_capacity(n_pins);
        let mut pin_net = Vec::with_capacity(n_pins);
        let mut pin_dx = Vec::with_capacity(n_pins);
        let mut pin_dy = Vec::with_capacity(n_pins);

        // Pin ids are handed out in net order: this loop is what makes
        // `net_pin_range` the identity view of `net_pins`.
        net2pin_start.push(0u32);
        for (ni, (w, pins)) in nets.into_iter().enumerate() {
            net_weight.push(w);
            for (bc, dx, dy) in pins {
                let cell = resolve(bc);
                let pin = PinId::new(pin_cell.len());
                net_pins.push(pin);
                pin_cell.push(cell);
                pin_net.push(NetId::new(ni));
                pin_dx.push(dx);
                pin_dy.push(dy);
            }
            net2pin_start.push(pin_cell.len() as u32);
        }

        // Build the cell -> pins CSR by counting sort.
        let mut counts = vec![0u32; n_cells + 1];
        for c in &pin_cell {
            counts[c.index() + 1] += 1;
        }
        for i in 0..n_cells {
            counts[i + 1] += counts[i];
        }
        let cell2pin_start = counts.clone();
        let mut cursor = counts;
        let mut cell_pins = vec![PinId::new(0); pin_cell.len()];
        for (pi, c) in pin_cell.iter().enumerate() {
            let slot = cursor[c.index()] as usize;
            cell_pins[slot] = PinId::new(pi);
            cursor[c.index()] += 1;
        }

        Ok(Netlist {
            region: self.region,
            rows: self.rows,
            cell_w,
            cell_h,
            num_movable: n_mov,
            net_weight,
            net2pin_start,
            net_pins,
            cell2pin_start,
            cell_pins,
            pin_cell,
            pin_net,
            pin_dx,
            pin_dy,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn two_cell_netlist() -> Netlist<f64> {
        let mut b = NetlistBuilder::new(0.0, 0.0, 10.0, 10.0);
        let a = b.add_movable_cell(1.0, 2.0);
        let c = b.add_movable_cell(1.0, 2.0);
        let f = b.add_fixed_cell(4.0, 4.0);
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.5, -0.5)])
            .expect("valid net");
        b.add_net(2.0, vec![(a, 0.0, 0.0), (f, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid net");
        b.build().expect("valid netlist")
    }

    #[test]
    fn csr_structure_is_consistent() {
        let nl = two_cell_netlist();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_movable(), 2);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 5);
        assert_eq!(nl.net_pins(NetId::new(0)).len(), 2);
        assert_eq!(nl.net_pins(NetId::new(1)).len(), 3);
        // pin->net and net->pin agree
        for net in nl.nets() {
            for &pin in nl.net_pins(net) {
                assert_eq!(nl.pin_net(pin), net);
            }
        }
        // pins are numbered net by net
        assert_eq!(nl.net_pin_range(NetId::new(0)), 0..2);
        assert_eq!(nl.net_pin_range(NetId::new(1)), 2..5);
        // cell->pin and pin->cell agree
        for cell in nl.cells() {
            for &pin in nl.cell_pins(cell) {
                assert_eq!(nl.pin_cell(pin), cell);
            }
        }
        // every pin appears exactly once in the cell CSR
        let total: usize = nl.cells().map(|c| nl.cell_pins(c).len()).sum();
        assert_eq!(total, nl.num_pins());
    }

    #[test]
    fn fixed_cells_are_renumbered_last() {
        let nl = two_cell_netlist();
        assert!(nl.is_movable(CellId::new(0)));
        assert!(nl.is_movable(CellId::new(1)));
        assert!(!nl.is_movable(CellId::new(2)));
        assert_eq!(nl.cell_width(CellId::new(2)), 4.0);
    }

    #[test]
    fn rejects_degenerate_net_by_default() {
        let mut b = NetlistBuilder::<f64>::new(0.0, 0.0, 1.0, 1.0);
        let a = b.add_movable_cell(0.1, 0.1);
        let err = b.add_net(1.0, vec![(a, 0.0, 0.0)]).unwrap_err();
        assert!(matches!(err, NetlistError::DegenerateNet { pins: 1, .. }));
    }

    #[test]
    fn keeps_degenerate_nets_when_allowed() {
        let mut b = NetlistBuilder::<f64>::new(0.0, 0.0, 1.0, 1.0).allow_degenerate_nets(true);
        let a = b.add_movable_cell(0.1, 0.1);
        let c = b.add_movable_cell(0.1, 0.1);
        b.add_net(1.0, vec![(a, 0.0, 0.0)]).expect("allowed");
        b.add_net(1.0, vec![(a, 0.0, 0.0), (c, 0.0, 0.0)])
            .expect("valid");
        b.add_net(1.0, vec![]).expect("allowed");
        let nl = b.build().expect("valid netlist");
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 3);
        assert_eq!(nl.net_degree(NetId::new(0)), 1);
        assert_eq!(nl.net_degree(NetId::new(2)), 0);
    }

    #[test]
    fn rejects_empty_design() {
        let b = NetlistBuilder::<f64>::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(b.build().unwrap_err(), NetlistError::NoMovableCells);
    }

    #[test]
    fn stats_reflect_geometry() {
        let nl = two_cell_netlist();
        let s = nl.stats();
        assert_eq!(s.num_cells, 3);
        assert_eq!(s.num_movable, 2);
        assert_eq!(s.num_pins, 5);
        assert!((s.avg_net_degree - 2.5).abs() < 1e-12);
        assert!((s.utilization - 4.0 / 100.0).abs() < 1e-12);
    }
}
