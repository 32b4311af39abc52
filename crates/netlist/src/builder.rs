//! Incremental netlist construction.

use crate::id::{CellId, NetId, PortId};
use crate::library::{GateFn, Library};
use crate::netlist::{Cell, Driver, Net, Netlist, Port, Sink};
use crate::NetlistError;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds a [`Netlist`] gate by gate.
///
/// Gates wider than the library supports (the shipped library tops out at
/// four inputs) are decomposed into balanced trees automatically, matching
/// what a synthesis tool would emit for the wide ISCAS-85 gates.
///
/// # Example
///
/// ```
/// use sm_netlist::{Library, NetlistBuilder, GateFn};
/// # fn main() -> Result<(), sm_netlist::NetlistError> {
/// let lib = Library::nangate45();
/// let mut b = NetlistBuilder::new("wide", &lib);
/// let ins: Vec<_> = (0..9).map(|i| b.input(format!("i{i}"))).collect();
/// let y = b.gate(GateFn::Nand, &ins)?; // decomposed into an AND tree + INV
/// b.output("y", y);
/// let n = b.finish()?;
/// assert!(n.num_cells() > 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    library: Arc<Library>,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    net_names: HashMap<String, NetId>,
    fresh: u64,
}

impl NetlistBuilder {
    /// Starts a new design named `name` mapped onto `library`.
    pub fn new(name: impl Into<String>, library: &Library) -> Self {
        NetlistBuilder {
            name: name.into(),
            library: Arc::new(library.clone()),
            cells: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            net_names: HashMap::new(),
            fresh: 0,
        }
    }

    /// Adds a primary input, returning the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if an input with this name already exists; use
    /// [`NetlistBuilder::try_input`] for fallible construction from
    /// untrusted files.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        self.try_input(name).expect("duplicate input name")
    }

    /// Fallible variant of [`NetlistBuilder::input`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn try_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.net_names.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let port = PortId::new(self.inputs.len());
        let net = self.push_net(name.clone(), Driver::Port(port));
        self.inputs.push(Port {
            name: name.clone(),
            net,
        });
        self.net_names.insert(name, net);
        Ok(net)
    }

    /// Marks `net` as a primary output named `name`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        let port = PortId::new(self.outputs.len());
        self.nets[net.index()].sinks.push(Sink::Port(port));
        self.outputs.push(Port {
            name: name.into(),
            net,
        });
    }

    /// Instantiates a gate computing `function` over `inputs`, returning the
    /// net driven by its output. Wide gates are decomposed into trees of
    /// library-supported fanins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadFanin`] for empty inputs or for unary
    /// functions applied to several nets.
    pub fn gate(&mut self, function: GateFn, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if inputs.is_empty() || (function.is_unary() && inputs.len() != 1) {
            return Err(NetlistError::BadFanin {
                function: function.to_string(),
                fanin: inputs.len(),
            });
        }
        if inputs.len() == 1 && !function.is_unary() {
            // Degenerate single-input AND/OR/XOR is a buffer; NAND/NOR/XNOR
            // an inverter. Some .bench files contain these.
            let f = match function {
                GateFn::And | GateFn::Or | GateFn::Xor => GateFn::Buf,
                GateFn::Nand | GateFn::Nor | GateFn::Xnor => GateFn::Inv,
                _ => unreachable!(),
            };
            return self.gate(f, inputs);
        }
        let max = self.max_fanin(function);
        if inputs.len() <= max {
            let lib = self.library.cell_for(function, inputs.len())?;
            return Ok(self.raw_cell(lib, inputs));
        }
        // Decompose: AND/OR/XOR trees keep the same function at every level;
        // NAND = INV(AND-tree), NOR = INV(OR-tree), XNOR = INV(XOR-tree).
        match function {
            GateFn::And | GateFn::Or | GateFn::Xor => self.tree(function, inputs),
            GateFn::Nand => {
                let t = self.tree(GateFn::And, inputs)?;
                self.gate(GateFn::Inv, &[t])
            }
            GateFn::Nor => {
                let t = self.tree(GateFn::Or, inputs)?;
                self.gate(GateFn::Inv, &[t])
            }
            GateFn::Xnor => {
                let t = self.tree(GateFn::Xor, inputs)?;
                self.gate(GateFn::Inv, &[t])
            }
            GateFn::Buf | GateFn::Inv => unreachable!("unary handled above"),
        }
    }

    /// Finishes construction, checking for combinational loops.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the built graph has a
    /// cycle.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let netlist = Netlist::from_parts(
            self.name,
            self.library,
            self.cells,
            self.nets,
            self.inputs,
            self.outputs,
        );
        crate::graph::topo_order(&netlist)?;
        Ok(netlist)
    }

    /// Looks up the net previously registered under `name`, registering a
    /// placeholder error otherwise. Used by parsers.
    pub fn net_by_name(&self, name: &str) -> Result<NetId, NetlistError> {
        self.net_names
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownSignal(name.to_string()))
    }

    /// Registers `name` as an alias for a gate output so later gates can
    /// reference it. Parsers call this after [`NetlistBuilder::gate`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn name_net(&mut self, name: impl Into<String>, net: NetId) -> Result<(), NetlistError> {
        let name = name.into();
        if self.net_names.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        self.net_names.insert(name, net);
        Ok(())
    }

    fn max_fanin(&self, function: GateFn) -> usize {
        (2..=8)
            .rev()
            .find(|&k| self.library.cell_for(function, k).is_ok())
            .unwrap_or(2)
    }

    fn tree(&mut self, function: GateFn, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let max = self.max_fanin(function);
        let mut level: Vec<NetId> = inputs.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(max));
            for chunk in level.chunks(max) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let lib = self.library.cell_for(function, chunk.len())?;
                    next.push(self.raw_cell(lib, chunk));
                }
            }
            level = next;
        }
        Ok(level[0])
    }

    fn raw_cell(&mut self, lib: crate::LibCellId, inputs: &[NetId]) -> NetId {
        let cell_id = CellId::new(self.cells.len());
        let out_name = format!("__g{}", self.fresh);
        self.fresh += 1;
        let out = self.push_net(out_name, Driver::Cell(cell_id));
        for (pin, &net) in inputs.iter().enumerate() {
            self.nets[net.index()].sinks.push(Sink::Cell {
                cell: cell_id,
                pin: pin as u8,
            });
        }
        self.cells.push(Cell {
            name: format!("U{}", cell_id.index()),
            lib,
            inputs: inputs.to_vec(),
            output: out,
        });
        out
    }

    fn push_net(&mut self, name: String, driver: Driver) -> NetId {
        let id = NetId::new(self.nets.len());
        self.nets.push(Net {
            name,
            driver,
            sinks: Vec::new(),
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Library;

    #[test]
    fn wide_gate_decomposes_into_tree() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("wide", &lib);
        let ins: Vec<_> = (0..9).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.gate(GateFn::And, &ins).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        n.validate().unwrap();
        // 9 inputs at max fanin 4: 4+4+1 -> 3 -> 1, so 3 gates total.
        assert_eq!(n.num_cells(), 3);
    }

    #[test]
    fn wide_nand_gets_inverter_cap() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("widenand", &lib);
        let ins: Vec<_> = (0..6).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.gate(GateFn::Nand, &ins).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        let inv_count = n
            .cells()
            .filter(|(_, c)| n.library().cell(c.lib).function == GateFn::Inv)
            .count();
        assert_eq!(inv_count, 1);
    }

    #[test]
    fn single_input_and_becomes_buffer() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("degen", &lib);
        let a = b.input("a");
        let y = b.gate(GateFn::And, &[a]).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        assert_eq!(n.num_cells(), 1);
        assert_eq!(
            n.library().cell(n.cell(crate::CellId::new(0)).lib).function,
            GateFn::Buf
        );
    }

    #[test]
    fn duplicate_input_rejected() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("dup", &lib);
        b.input("a");
        assert!(b.try_input("a").is_err());
    }

    #[test]
    fn empty_gate_rejected() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("e", &lib);
        assert!(b.gate(GateFn::And, &[]).is_err());
    }

    #[test]
    fn unary_with_two_inputs_rejected() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("e", &lib);
        let a = b.input("a");
        let c = b.input("b");
        assert!(b.gate(GateFn::Inv, &[a, c]).is_err());
    }
}
