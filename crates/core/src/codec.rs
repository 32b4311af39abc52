//! The [`sm_codec`] wire formats of protection-flow results.
//!
//! [`ProtectedDesign`] is the most expensive artifact in the
//! reproduction (randomize → place → route ×2 → PPA), so it is the
//! payload the engine's disk store most wants to keep. Every format here
//! is a `record!`: its fields, in the listed order, each in its
//! `sm-netlist`/`sm-layout` encoding.

use sm_codec::record;

use crate::correction::CorrectionCell;
use crate::flow::{BaselineLayout, ProtectedDesign};
use crate::ppa::{PpaOverhead, PpaReport};
use crate::randomize::{Randomization, SwapRecord};

record!(PpaReport {
    area_um2,
    power_uw,
    delay_ps
});
record!(PpaOverhead {
    area_pct,
    power_pct,
    delay_pct
});
record!(SwapRecord {
    net_a,
    sink_a,
    net_b,
    sink_b
});
record!(Randomization {
    erroneous,
    swaps,
    oer_achieved,
    hd_achieved
});
record!(CorrectionCell {
    id,
    erroneous_net,
    true_net,
    pin_layer,
    position
});
record!(BaselineLayout {
    floorplan,
    placement,
    routing,
    ppa
});
record!(ProtectedDesign {
    randomization,
    restored,
    floorplan,
    placement,
    feol_routing,
    restored_routing,
    correction_cells,
    baseline,
    ppa,
    ppa_overhead
});

#[cfg(test)]
mod tests {
    use sm_codec::{decode_from_slice, encode_to_vec};
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    use crate::flow::tests::protect_serial;
    use crate::flow::{FlowConfig, ProtectedDesign};

    #[test]
    fn protected_design_roundtrips() {
        let n = parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap();
        let p = protect_serial(&n, &FlowConfig::iscas_default(9));
        let bytes = encode_to_vec(&p);
        let back: ProtectedDesign = decode_from_slice(&bytes).unwrap();

        back.randomization.erroneous.validate().unwrap();
        back.restored.validate().unwrap();
        assert_eq!(back.randomization.swaps, p.randomization.swaps);
        assert_eq!(back.protected_nets(), p.protected_nets());
        assert_eq!(back.feol_routing.via_counts(), p.feol_routing.via_counts());
        assert_eq!(
            back.restored_routing.total_wirelength_dbu(),
            p.restored_routing.total_wirelength_dbu()
        );
        assert_eq!(back.correction_cells, p.correction_cells);
        assert_eq!(back.ppa, p.ppa);
        assert_eq!(back.ppa_overhead, p.ppa_overhead);
        assert_eq!(back.baseline.ppa, p.baseline.ppa);
        // Re-encoding the decoded value is byte-stable.
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn truncated_design_fails_cleanly() {
        let n = parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap();
        let p = protect_serial(&n, &FlowConfig::iscas_default(2));
        let bytes = encode_to_vec(&p);
        for cut in [7, bytes.len() / 2, bytes.len() - 3] {
            assert!(decode_from_slice::<ProtectedDesign>(&bytes[..cut]).is_err());
        }
    }
}
