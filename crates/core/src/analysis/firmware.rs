//! Failures by firmware version and device class.
//!
//! The paper's fleet was one handset line, but Section 4 asks whether
//! failure behaviour depends on the device: do communicators fail
//! differently from entry-level phones? The `firmware` pass answers
//! from logged data alone, folding each phone under the device class
//! and firmware line its composition assigned: panics per firmware
//! version, and a device-class × failure-type contingency table that
//! the report tests for independence.

use std::collections::BTreeMap;

use symfail_stats::ContingencyTable;

use super::checkpoint::{read_table, write_table, ByteReader, ByteWriter, CheckpointError};
use super::passes::{AnalysisPass, PhoneLens};
use super::report::StudyReport;

/// The firmware pass's section and accumulator: panics per firmware
/// version plus the paper's Section-4 device-class × failure-type
/// contingency table. Both are order-insensitive additive counters, so
/// every driver (reference, streaming, merged checkpoints) renders the
/// same tables.
#[derive(Debug, Clone, Default)]
pub struct FirmwareBreakdown {
    /// Firmware label → `(phones, panics)`, in label order.
    pub versions: BTreeMap<String, (u64, u64)>,
    /// Device class (rows) × failure type (`panic` / `freeze` /
    /// `self-shutdown` columns) counts.
    pub class_failures: ContingencyTable,
}

/// The firmware/device-class pass.
pub(super) struct FirmwarePass;

impl AnalysisPass for FirmwarePass {
    type Acc = FirmwareBreakdown;
    const NAME: &'static str = "firmware";

    fn fold_phone(&self, lens: &PhoneLens<'_>) -> Self::Acc {
        let panics = lens.phone.panics().len() as u64;
        let class = lens.device.device_class;
        let mut class_failures = ContingencyTable::new();
        // Zero counts still create the cells, so the table keeps all
        // three failure-type columns for every present class.
        class_failures.add_n(class, "panic", panics);
        class_failures.add_n(class, "freeze", lens.phone.freezes().len() as u64);
        class_failures.add_n(class, "self-shutdown", lens.self_shutdowns as u64);
        FirmwareBreakdown {
            versions: BTreeMap::from([(lens.device.firmware.to_string(), (1, panics))]),
            class_failures,
        }
    }

    fn merge(&self, acc: &mut Self::Acc, other: Self::Acc, _remap: Option<&[u16]>) {
        for (label, (phones, panics)) in other.versions {
            let entry = acc.versions.entry(label).or_insert((0, 0));
            entry.0 += phones;
            entry.1 += panics;
        }
        acc.class_failures.merge(&other.class_failures);
    }

    fn finish(&self, acc: Self::Acc, report: &mut StudyReport) {
        report.firmware = acc;
    }

    fn snapshot(&self, acc: &Self::Acc, out: &mut ByteWriter) {
        out.usize(acc.versions.len());
        for (label, (phones, panics)) in &acc.versions {
            out.str(label);
            out.u64(*phones);
            out.u64(*panics);
        }
        write_table(out, &acc.class_failures);
    }

    fn restore(&self, src: &mut ByteReader<'_>) -> Result<Self::Acc, CheckpointError> {
        let n = src.usize()?;
        let mut versions = BTreeMap::new();
        for _ in 0..n {
            let label = src.str()?;
            let phones = src.u64()?;
            let panics = src.u64()?;
            if versions.insert(label, (phones, panics)).is_some() {
                return Err(CheckpointError::Corrupt("duplicate firmware label"));
            }
        }
        Ok(FirmwareBreakdown {
            versions,
            class_failures: read_table(src)?,
        })
    }
}
