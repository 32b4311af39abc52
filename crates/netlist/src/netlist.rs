//! The central gate-level netlist container.

use crate::id::{CellId, LibCellId, NetId, PortId};
use crate::library::Library;
use crate::NetlistError;
use std::fmt;
use std::sync::Arc;

/// A primary input or output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name as it appears in the source file.
    pub name: String,
    /// The net attached to this port.
    pub net: NetId,
}

/// What drives a net: either a cell's (single) output or a primary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Driver {
    /// Driven by the output pin of a cell.
    Cell(CellId),
    /// Driven by a primary input; the id indexes [`Netlist::input_ports`].
    Port(PortId),
}

/// What a net feeds: a cell input pin or a primary output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sink {
    /// An input pin of a cell.
    Cell {
        /// The sink cell.
        cell: CellId,
        /// Zero-based input pin index within that cell.
        pin: u8,
    },
    /// A primary output; the id indexes [`Netlist::output_ports`].
    Port(PortId),
}

impl fmt::Display for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sink::Cell { cell, pin } => write!(f, "{cell}.{pin}"),
            Sink::Port(p) => write!(f, "out:{p}"),
        }
    }
}

/// One standard-cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// Which library cell this instantiates.
    pub lib: LibCellId,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Cell {
    /// Nets connected to this cell's input pins, in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net driven by this cell's output pin.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// One net: a single driver and any number of sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    pub(crate) driver: Driver,
    pub(crate) sinks: Vec<Sink>,
}

impl Net {
    /// The driver of this net.
    pub fn driver(&self) -> Driver {
        self.driver
    }

    /// The sinks of this net.
    pub fn sinks(&self) -> &[Sink] {
        &self.sinks
    }

    /// Number of pins on the net (driver + sinks).
    pub fn degree(&self) -> usize {
        1 + self.sinks.len()
    }
}

/// A combinational gate-level netlist with single-output cells.
///
/// Construct one with [`crate::NetlistBuilder`] or the parsers in
/// [`crate::parse`]; edit connectivity with [`Netlist::move_sink`] (the
/// primitive the randomization defense is built on).
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) library: Arc<Library>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<Port>,
    pub(crate) outputs: Vec<Port>,
}

impl Netlist {
    pub(crate) fn from_parts(
        name: String,
        library: Arc<Library>,
        cells: Vec<Cell>,
        nets: Vec<Net>,
        inputs: Vec<Port>,
        outputs: Vec<Port>,
    ) -> Self {
        Netlist {
            name,
            library,
            cells,
            nets,
            inputs,
            outputs,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library this netlist is mapped to.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// Number of cell instances.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Primary input ports, indexed by the [`PortId`] in [`Driver::Port`].
    pub fn input_ports(&self) -> &[Port] {
        &self.inputs
    }

    /// Primary output ports, indexed by the [`PortId`] in [`Sink::Port`].
    pub fn output_ports(&self) -> &[Port] {
        &self.outputs
    }

    /// Returns a cell by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Returns a net by handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::new(i), c))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i), n))
    }

    /// The cell driving `net`, or `None` if a primary input drives it.
    pub fn driver_cell(&self, net: NetId) -> Option<CellId> {
        match self.net(net).driver {
            Driver::Cell(c) => Some(c),
            Driver::Port(_) => None,
        }
    }

    /// Capacitive load on `net` in fF: the sum of the input-pin caps of all
    /// cell sinks (primary outputs are modeled with a fixed 2 fF pad load).
    pub fn net_pin_load_ff(&self, net: NetId) -> f64 {
        const PAD_LOAD_FF: f64 = 2.0;
        self.net(net)
            .sinks
            .iter()
            .map(|s| match s {
                Sink::Cell { cell, .. } => self.library.cell(self.cell(*cell).lib).input_cap_ff,
                Sink::Port(_) => PAD_LOAD_FF,
            })
            .sum()
    }

    /// Moves `sink` from net `from` to net `to`, keeping cell pin bindings
    /// and port bindings consistent. This is the single connectivity edit
    /// the randomization defense and the attacks' netlist reconstruction
    /// are built from.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::SinkNotOnNet`] if `sink` is not currently a
    /// sink of `from`.
    pub fn move_sink(&mut self, from: NetId, sink: Sink, to: NetId) -> Result<(), NetlistError> {
        let from_net = &mut self.nets[from.index()];
        let pos = from_net
            .sinks
            .iter()
            .position(|&s| s == sink)
            .ok_or_else(|| NetlistError::SinkNotOnNet {
                sink: sink.to_string(),
                net: from_net.name.clone(),
            })?;
        from_net.sinks.swap_remove(pos);
        self.nets[to.index()].sinks.push(sink);
        match sink {
            Sink::Cell { cell, pin } => {
                self.cells[cell.index()].inputs[pin as usize] = to;
            }
            Sink::Port(p) => {
                self.outputs[p.index()].net = to;
            }
        }
        Ok(())
    }

    /// Total standard-cell area in µm².
    pub fn total_cell_area_um2(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell(c.lib).area_um2)
            .sum()
    }

    /// Verifies internal consistency: every cell pin binding matches the
    /// net's sink list, every driver matches, and port bindings agree.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`NetlistError`] on the first inconsistency.
    /// This is an invariant check used heavily by tests; production flows
    /// may skip it.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, cell) in self.cells() {
            let lib = self.library.cell(cell.lib);
            if cell.inputs.len() != lib.num_inputs {
                return Err(NetlistError::PortMismatch(format!(
                    "cell `{}` has {} inputs, library cell `{}` expects {}",
                    cell.name,
                    cell.inputs.len(),
                    lib.name,
                    lib.num_inputs
                )));
            }
            for (pin, &net) in cell.inputs.iter().enumerate() {
                let on_net = self.net(net).sinks.iter().any(
                    |s| matches!(s, Sink::Cell { cell: c, pin: p } if *c == id && *p as usize == pin),
                );
                if !on_net {
                    return Err(NetlistError::SinkNotOnNet {
                        sink: format!("{id}.{pin}"),
                        net: self.net(net).name.clone(),
                    });
                }
            }
            if self.net(cell.output).driver != Driver::Cell(id) {
                return Err(NetlistError::PortMismatch(format!(
                    "cell `{}` claims to drive net `{}` but the net disagrees",
                    cell.name,
                    self.net(cell.output).name
                )));
            }
        }
        for (i, port) in self.inputs.iter().enumerate() {
            if self.net(port.net).driver != Driver::Port(PortId::new(i)) {
                return Err(NetlistError::PortMismatch(format!(
                    "input port `{}` not driving its net",
                    port.name
                )));
            }
        }
        for (i, port) in self.outputs.iter().enumerate() {
            let ok = self
                .net(port.net)
                .sinks
                .iter()
                .any(|s| matches!(s, Sink::Port(p) if p.index() == i));
            if !ok {
                return Err(NetlistError::PortMismatch(format!(
                    "output port `{}` not a sink of its net",
                    port.name
                )));
            }
        }
        for (id, net) in self.nets() {
            for sink in &net.sinks {
                let bound = match *sink {
                    Sink::Cell { cell, pin } => self.cell(cell).inputs[pin as usize] == id,
                    Sink::Port(p) => self.outputs[p.index()].net == id,
                };
                if !bound {
                    return Err(NetlistError::SinkNotOnNet {
                        sink: sink.to_string(),
                        net: net.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateFn, Library, NetlistBuilder, Sink};

    fn tiny() -> crate::Netlist {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("tiny", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate(GateFn::Nand, &[a, c]).unwrap();
        let g2 = b.gate(GateFn::Inv, &[g1]).unwrap();
        b.output("y", g2);
        b.finish().unwrap()
    }

    #[test]
    fn construction_is_consistent() {
        let n = tiny();
        assert_eq!(n.num_cells(), 2);
        assert_eq!(n.input_ports().len(), 2);
        assert_eq!(n.output_ports().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn move_sink_rewires_and_stays_consistent() {
        let mut n = tiny();
        // Move the inverter's input from the NAND output to primary input a.
        let inv = n
            .cells()
            .find(|(_, c)| n.library().cell(c.lib).function == GateFn::Inv)
            .map(|(id, _)| id)
            .unwrap();
        let from = n.cell(inv).inputs()[0];
        let to = n.input_ports()[0].net;
        n.move_sink(from, Sink::Cell { cell: inv, pin: 0 }, to)
            .unwrap();
        assert_eq!(n.cell(inv).inputs()[0], to);
        n.validate().unwrap();
        // The NAND output net lost its only sink.
        assert!(n.net(from).sinks().is_empty());
    }

    #[test]
    fn move_sink_rejects_wrong_net() {
        let mut n = tiny();
        let a = n.input_ports()[0].net;
        let b = n.input_ports()[1].net;
        let bogus = Sink::Port(crate::PortId::new(0));
        // The output port is not a sink of net `a`.
        assert!(n.move_sink(a, bogus, b).is_err());
    }

    #[test]
    fn net_pin_load_sums_sink_caps() {
        let n = tiny();
        let a = n.input_ports()[0].net;
        // `a` feeds one NAND2_X1 input pin (1.1 fF).
        assert!((n.net_pin_load_ff(a) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn total_area_positive() {
        assert!(tiny().total_cell_area_um2() > 1.0);
    }
}
