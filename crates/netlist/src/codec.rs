//! The [`sm_codec`] wire formats of netlist types.
//!
//! These power the engine's disk-backed artifact store: a fully-processed
//! layout bundle embeds several [`Netlist`]s, and persisting one must
//! round-trip connectivity exactly (ids are positional, so encoding keeps
//! vector order). Each `record!`/`tagged!` list below is a type's format;
//! ids encode as `u32`. [`Library`] and [`Netlist`] are written out by
//! hand because their decode rebuilds derived state (the library's name
//! index, rejecting duplicate names) and shares it (the netlist's
//! library handle). Structural invariants beyond that are the caller's
//! to check — the store treats any [`CodecError`] as a cache miss and
//! rebuilds from scratch.

use std::sync::Arc;

use sm_codec::{record, tagged, CodecError, Decode, Encode, Reader, Writer};

use crate::id::{CellId, LibCellId, NetId, PortId};
use crate::library::{GateFn, LibCell, Library};
use crate::netlist::{Cell, Driver, Net, Netlist, Port, Sink};

macro_rules! impl_id_codec {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                (self.index() as u32).encode(w);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::new(u32::decode(r)? as usize))
            }
        }
    )*};
}

impl_id_codec!(CellId, NetId, PortId, LibCellId);

tagged!(GateFn {
    0 => Buf,
    1 => Inv,
    2 => And,
    3 => Nand,
    4 => Or,
    5 => Nor,
    6 => Xor,
    7 => Xnor,
});
record!(LibCell {
    name,
    function,
    num_inputs,
    area_um2,
    input_cap_ff,
    drive_res_kohm,
    intrinsic_delay_ps,
    leakage_nw
});

impl Encode for Library {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.cells.encode(w);
    }
}

impl Decode for Library {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let cells = Vec::<LibCell>::decode(r)?;
        // Rebuild through the public constructor so the name index stays
        // consistent; duplicate names mean corrupted input ([`Library::
        // add_cell`] would panic, which decode must never do).
        let mut lib = Library::new(name);
        for cell in cells {
            if lib.find(&cell.name).is_some() {
                return Err(CodecError::Invalid(format!(
                    "duplicate library cell `{}`",
                    cell.name
                )));
            }
            lib.add_cell(cell);
        }
        Ok(lib)
    }
}

tagged!(Driver { 0 => Cell(cell), 1 => Port(port) });
tagged!(Sink { 0 => Cell { cell, pin }, 1 => Port(port) });
record!(Port { name, net });
record!(Cell {
    name,
    lib,
    inputs,
    output
});
record!(Net {
    name,
    driver,
    sinks
});

impl Encode for Netlist {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        self.library.encode(w);
        self.cells.encode(w);
        self.nets.encode(w);
        self.inputs.encode(w);
        self.outputs.encode(w);
    }
}

impl Decode for Netlist {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Netlist::from_parts(
            String::decode(r)?,
            Arc::new(Library::decode(r)?),
            Vec::decode(r)?,
            Vec::decode(r)?,
            Vec::decode(r)?,
            Vec::decode(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use sm_codec::{decode_from_slice, encode_to_vec};

    use crate::parse::bench::{parse_bench, C17_BENCH};
    use crate::{Library, Netlist};

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn netlist_roundtrips_exactly() {
        let n = c17();
        let bytes = encode_to_vec(&n);
        let back: Netlist = decode_from_slice(&bytes).unwrap();
        back.validate().unwrap();
        assert_eq!(back.name(), n.name());
        assert_eq!(back.num_cells(), n.num_cells());
        assert_eq!(back.num_nets(), n.num_nets());
        assert_eq!(back.input_ports(), n.input_ports());
        assert_eq!(back.output_ports(), n.output_ports());
        for (id, cell) in n.cells() {
            assert_eq!(back.cell(id), cell);
        }
        for (id, net) in n.nets() {
            assert_eq!(back.net(id), net);
        }
        assert_eq!(back.library().name(), n.library().name());
        assert_eq!(back.total_cell_area_um2(), n.total_cell_area_um2());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_to_vec(&c17()), encode_to_vec(&c17()));
    }

    #[test]
    fn truncated_netlist_fails_cleanly() {
        let bytes = encode_to_vec(&c17());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_from_slice::<Netlist>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn duplicate_library_cells_are_rejected() {
        use sm_codec::{Encode, Writer};
        let lib = Library::nangate45();
        let mut w = Writer::new();
        // A library whose cell list repeats the first cell.
        lib.name().encode(&mut w);
        let first = lib.iter().next().unwrap().1.clone();
        vec![first.clone(), first].encode(&mut w);
        assert!(decode_from_slice::<Library>(&w.into_bytes()).is_err());
    }
}
