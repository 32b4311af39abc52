//! The [`sm_codec`] wire formats of layout types.
//!
//! A persisted bundle carries full physical views — floorplans,
//! placements and routing results — so warm `smctl` runs can skip
//! place-and-route entirely. All encodings are positional (ids index
//! vectors), mirroring the in-memory representation exactly. Each
//! `record!`/`tagged!` list below is a type's format. `Rect`,
//! `Floorplan` and `Placement` are written out by hand because their
//! decode rejects what its users would panic on (inverted corners, no
//! rows, unequal vectors); every other semantic check is left to the
//! store's rebuild-on-error policy.

use sm_codec::{record, tagged, CodecError, Decode, Encode, Reader, Writer};

use crate::floorplan::Floorplan;
use crate::geom::{Point, Rect};
use crate::place::Placement;
use crate::route::{NetRoute, RouteSegment, RoutingResult, TwoPinRoute, ViaCounts, ViaStack};
use crate::split::{FeolView, SplitLayout, Vpin, VpinSide};

record!(Point { x, y });

impl Encode for Rect {
    fn encode(&self, w: &mut Writer) {
        self.lo.encode(w);
        self.hi.encode(w);
    }
}

impl Decode for Rect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let lo = Point::decode(r)?;
        let hi = Point::decode(r)?;
        if hi.x < lo.x || hi.y < lo.y {
            // `Rect::new` panics on degenerate corners; decode must not.
            return Err(CodecError::Invalid(format!(
                "degenerate rectangle {lo}..{hi}"
            )));
        }
        Ok(Rect::new(lo, hi))
    }
}

impl Encode for Floorplan {
    fn encode(&self, w: &mut Writer) {
        self.core.encode(w);
        self.num_rows.encode(w);
        self.row_height.encode(w);
        self.site_width.encode(w);
        self.sites_per_row.encode(w);
        self.target_utilization.encode(w);
    }
}

impl Decode for Floorplan {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let fp = Floorplan {
            core: Rect::decode(r)?,
            num_rows: usize::decode(r)?,
            row_height: i64::decode(r)?,
            site_width: i64::decode(r)?,
            sites_per_row: usize::decode(r)?,
            target_utilization: f64::decode(r)?,
        };
        if fp.num_rows == 0 || fp.row_height <= 0 {
            // `row_of` divides by row_height and indexes rows.
            return Err(CodecError::Invalid("floorplan with no rows".into()));
        }
        Ok(fp)
    }
}

impl Encode for Placement {
    fn encode(&self, w: &mut Writer) {
        self.origins.encode(w);
        self.widths.encode(w);
        self.row_height.encode(w);
        self.inputs.encode(w);
        self.outputs.encode(w);
    }
}

impl Decode for Placement {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let p = Placement {
            origins: Vec::decode(r)?,
            widths: Vec::decode(r)?,
            row_height: i64::decode(r)?,
            inputs: Vec::decode(r)?,
            outputs: Vec::decode(r)?,
        };
        if p.origins.len() != p.widths.len() {
            return Err(CodecError::Invalid(format!(
                "placement with {} origins but {} widths",
                p.origins.len(),
                p.widths.len()
            )));
        }
        Ok(p)
    }
}

record!(ViaCounts { counts });
record!(RouteSegment { layer, a, b });
record!(ViaStack {
    at,
    from_layer,
    to_layer
});
record!(TwoPinRoute {
    a_pin,
    b_pin,
    a,
    b,
    corner,
    first_layer,
    second_layer
});
record!(NetRoute {
    segments,
    vias,
    twopins
});
record!(RoutingResult {
    tile_dbu,
    nx,
    ny,
    routes,
    via_counts,
    wirelength_per_layer,
    overflow_edges
});
tagged!(VpinSide { 0 => Driver(driver), 1 => Sink(sink) });
record!(Vpin {
    position,
    side,
    stub_direction,
    net
});
record!(FeolView {
    split_layer,
    visible_nets,
    vpins
});
record!(SplitLayout { feol, cut_nets });

#[cfg(test)]
mod tests {
    use sm_codec::{decode_from_slice, encode_to_vec};
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::{Library, Netlist};

    use crate::tech::Technology;
    use crate::{Floorplan, Placement, PlacementEngine, RouteOptions, Router, RoutingResult};

    fn placed_and_routed() -> (Netlist, Floorplan, Placement, RoutingResult) {
        let n = parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.6);
        let pl = PlacementEngine::new(3).place(&n, &fp);
        let rt = Router::new(&tech).route(&n, &pl, &fp, &RouteOptions::default());
        (n, fp, pl, rt)
    }

    #[test]
    fn physical_views_roundtrip() {
        let (n, fp, pl, rt) = placed_and_routed();

        let fp2: Floorplan = decode_from_slice(&encode_to_vec(&fp)).unwrap();
        assert_eq!(fp2, fp);

        let pl2: Placement = decode_from_slice(&encode_to_vec(&pl)).unwrap();
        assert_eq!(pl2, pl);
        assert!(pl2.is_legal(&fp2));

        let rt2: RoutingResult = decode_from_slice(&encode_to_vec(&rt)).unwrap();
        assert_eq!(rt2.via_counts(), rt.via_counts());
        assert_eq!(rt2.total_wirelength_dbu(), rt.total_wirelength_dbu());
        assert_eq!(rt2.grid_dims(), rt.grid_dims());
        assert_eq!(rt2.overflow_edges(), rt.overflow_edges());
        for (id, _) in n.nets() {
            assert_eq!(rt2.route(id).segments, rt.route(id).segments);
            assert_eq!(rt2.route(id).vias, rt.route(id).vias);
            assert_eq!(rt2.route(id).twopins, rt.route(id).twopins);
            assert_eq!(rt2.net_max_layer(id), rt.net_max_layer(id));
        }
    }

    #[test]
    fn split_layouts_roundtrip() {
        use crate::split::{split_layout, SplitLayout};
        let (n, _, pl, rt) = placed_and_routed();
        for layer in [2u8, 3, 4] {
            let s = split_layout(&n, &pl, &rt, layer);
            let s2: SplitLayout = decode_from_slice(&encode_to_vec(&s)).unwrap();
            assert_eq!(s2.cut_nets, s.cut_nets);
            assert_eq!(s2.feol.split_layer, s.feol.split_layer);
            assert_eq!(s2.feol.visible_nets, s.feol.visible_nets);
            assert_eq!(s2.feol.vpins, s.feol.vpins);
        }
        // Corrupt split bytes fail cleanly, like every other payload.
        let s = split_layout(&n, &pl, &rt, 3);
        let bytes = encode_to_vec(&s);
        assert!(decode_from_slice::<SplitLayout>(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn corrupt_layout_bytes_fail_cleanly() {
        let (_, fp, pl, rt) = placed_and_routed();
        for bytes in [encode_to_vec(&fp), encode_to_vec(&pl), encode_to_vec(&rt)] {
            assert!(decode_from_slice::<RoutingResult>(&bytes[..bytes.len() / 3]).is_err());
            // Flipping length-prefix bytes must never panic.
            let mut garbled = bytes.clone();
            for b in garbled.iter_mut().take(24) {
                *b = 0xff;
            }
            let _ = decode_from_slice::<Floorplan>(&garbled);
            let _ = decode_from_slice::<Placement>(&garbled);
            let _ = decode_from_slice::<RoutingResult>(&garbled);
        }
    }

    #[test]
    fn mismatched_placement_vectors_are_rejected() {
        use sm_codec::{Encode, Writer};
        let (_, _, pl, _) = placed_and_routed();
        let mut w = Writer::new();
        pl.origins.encode(&mut w);
        vec![0i64; pl.origins.len() + 1].encode(&mut w);
        pl.row_height.encode(&mut w);
        pl.inputs.encode(&mut w);
        pl.outputs.encode(&mut w);
        assert!(decode_from_slice::<Placement>(&w.into_bytes()).is_err());
    }
}
