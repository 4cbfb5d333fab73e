//! The traced composition must render what the program's own driver
//! renders, and its layer spans must account for the op's wall time.

use symfail_core::analysis::passes::PassRegistry;
use symfail_perfbench::trace::{self, Tracer};
use symfail_perfbench::workloads::{analysis_config, campaign_op, traced_campaign_op, Fleet};

fn slice(mut fleet: Fleet) -> Fleet {
    fleet.phones = 3;
    fleet.days = 200;
    fleet
}

#[test]
fn traced_slice_matches_driver_and_layers_cover_the_op() {
    let registry = PassRegistry::all();
    let config = analysis_config();
    for fleet in [
        slice(Fleet::paper(2005)),
        slice(Fleet::worst_mixed(2005, 3)),
    ] {
        let untraced = campaign_op(&fleet.campaign(), 1, &registry, config).expect("driver run");
        let tracer = Tracer::default();
        let traced = traced_campaign_op(&fleet, 1, &registry, config, &tracer, 0);
        assert_eq!(traced, untraced.text, "traced report differs for {fleet:?}");

        let (spans, counts) = tracer.finish();
        let op = spans
            .iter()
            .find(|s| s.name == trace::OP)
            .expect("an op span");
        let op_wall = (op.end_ns - op.start_ns) as f64;
        let summary = trace::summarize(&spans);
        let layer_self = summary.layer_self_ns as f64;
        assert!(
            (layer_self - op_wall).abs() <= 0.05 * op_wall,
            "layer self time {layer_self} ns vs op wall {op_wall} ns"
        );
        assert!(layer_self <= op_wall, "self times overlap");
        assert_eq!(summary.layers["phone.simulate"].calls, 3);
        assert_eq!(
            counts["phone.simulate.phone_days"], untraced.phone_days,
            "phone-days"
        );
        let corrupted = summary.layers["phone.corrupt"].calls;
        assert_eq!(
            corrupted,
            if fleet.corruption.as_str() == "none" {
                0
            } else {
                3
            }
        );
    }
}
