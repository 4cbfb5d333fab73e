//! Fleet composition: the device-class dimension of the campaign.
//!
//! The paper's Section 4 slices user-reported failures by *device
//! class* (a contingency analysis of failure type × class, chi-square
//! tested), and its Section 5 fleet mixes Symbian 6.1–9.0 handsets.
//! This module makes that heterogeneity a first-class campaign
//! concept: a [`FleetComposition`] assigns every phone a
//! [`DeviceClass`] deterministically (the same stratified coprime
//! permutation shape as [`SymbianVersion::assign`], consuming **no**
//! RNG, so the per-phone `fork` streams — and therefore the harvest —
//! stay byte-identical for any worker count), and a [`DeviceProfile`]
//! resolves the class plus firmware into per-phone
//! [`CalibrationParams`] scaling and a corruption tendency.
//!
//! The default composition is 100% [`DeviceClass::Smartphone`], whose
//! multipliers are all exactly `1.0`: scaling through it is a bitwise
//! no-op, which is what lets the heterogeneous-fleet refactor keep the
//! homogeneous campaign byte-identical to its pre-composition output.

use crate::calibration::CalibrationParams;
use crate::corruption::CorruptionRates;
use crate::firmware::SymbianVersion;

/// A Section-4-style device class: the market segment a handset
/// belongs to, which sets how hard it is used and how failure-prone
/// it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// Enterprise communicator: heavy daily use, many third-party
    /// applications, the most failure-exposed segment.
    Communicator,
    /// Mainstream smartphone — the neutral reference class; all of
    /// its multipliers are exactly `1.0`.
    Smartphone,
    /// Entry-level handset: light use, few installed applications.
    EntryLevel,
}

impl DeviceClass {
    /// All classes, heaviest-use first.
    pub const ALL: [DeviceClass; 3] = [
        DeviceClass::Communicator,
        DeviceClass::Smartphone,
        DeviceClass::EntryLevel,
    ];

    /// Display / spec label.
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceClass::Communicator => "communicator",
            DeviceClass::Smartphone => "smartphone",
            DeviceClass::EntryLevel => "entry-level",
        }
    }

    /// Parse a spec label back into a class.
    pub fn parse(s: &str) -> Option<DeviceClass> {
        DeviceClass::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// Multiplier on the usage-volume parameters (calls, messages,
    /// app sessions per day): communicators are driven hard,
    /// entry-level phones barely at all.
    pub fn usage_multiplier(self) -> f64 {
        match self {
            DeviceClass::Communicator => 1.45,
            DeviceClass::Smartphone => 1.0,
            DeviceClass::EntryLevel => 0.55,
        }
    }

    /// Multiplier on the fault-exposure parameters (episode
    /// probabilities and isolated failure rates), on top of the
    /// per-firmware residual-fault multiplier.
    pub fn fault_multiplier(self) -> f64 {
        match self {
            DeviceClass::Communicator => 1.2,
            DeviceClass::Smartphone => 1.0,
            DeviceClass::EntryLevel => 0.85,
        }
    }

    /// Multiplier on the flash-corruption probabilities: heavier use
    /// means more write cycles and more interrupted writes.
    pub fn corruption_tendency(self) -> f64 {
        match self {
            DeviceClass::Communicator => 1.3,
            DeviceClass::Smartphone => 1.0,
            DeviceClass::EntryLevel => 0.7,
        }
    }
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The resolved per-phone device identity: class plus firmware. This
/// is what the campaign consults when it sets a phone up — everything
/// class-specific (parameter scaling, corruption tendency) flows
/// through here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceProfile {
    /// The Section-4 device class.
    pub class: DeviceClass,
    /// The Symbian release the device runs.
    pub firmware: SymbianVersion,
}

impl DeviceProfile {
    /// Scale the campaign-wide calibration through this device's
    /// class: usage volumes by the usage multiplier, fault exposure by
    /// the fault multiplier (probabilities clamped to 1). For the
    /// default [`DeviceClass::Smartphone`] every multiplier is exactly
    /// `1.0`, so the result is bitwise identical to `base`.
    pub fn scale_params(&self, base: &CalibrationParams) -> CalibrationParams {
        let usage = self.class.usage_multiplier();
        let fault = self.class.fault_multiplier();
        CalibrationParams {
            calls_per_day: base.calls_per_day * usage,
            messages_per_day: base.messages_per_day * usage,
            app_sessions_per_day: base.app_sessions_per_day * usage,
            p_episode_per_call: (base.p_episode_per_call * fault).min(1.0),
            p_episode_per_message: (base.p_episode_per_message * fault).min(1.0),
            background_episode_rate_per_hour: base.background_episode_rate_per_hour * fault,
            isolated_freeze_rate_per_hour: base.isolated_freeze_rate_per_hour * fault,
            isolated_self_shutdown_rate_per_hour: base.isolated_self_shutdown_rate_per_hour * fault,
            output_failure_rate_per_hour: base.output_failure_rate_per_hour * fault,
            ..*base
        }
    }

    /// Scale a corruption profile's rates through this device's
    /// corruption tendency (probabilities clamped to 1; attempt counts
    /// and line caps untouched). Tendency `1.0` is a bitwise no-op.
    pub fn scale_corruption(&self, base: CorruptionRates) -> CorruptionRates {
        let t = self.class.corruption_tendency();
        CorruptionRates {
            p_tail_loss: (base.p_tail_loss * t).min(1.0),
            p_dup_block: (base.p_dup_block * t).min(1.0),
            p_reorder_block: (base.p_reorder_block * t).min(1.0),
            p_bitflip: (base.p_bitflip * t).min(1.0),
            p_truncate: (base.p_truncate * t).min(1.0),
            ..base
        }
    }
}

/// A typed `--fleet <spec>` parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSpecError {
    /// The spec string was empty.
    Empty,
    /// An entry had no `class:weight` separator.
    NoColon {
        /// The offending entry.
        entry: String,
    },
    /// An entry named a class that does not exist.
    UnknownClass {
        /// The unrecognized class token.
        token: String,
    },
    /// An entry's weight was not a finite non-negative number.
    BadWeight {
        /// The unparseable weight token.
        token: String,
    },
    /// The same class appeared twice.
    DuplicateClass {
        /// The repeated class.
        class: DeviceClass,
    },
    /// Every weight was zero.
    ZeroTotal,
}

impl std::fmt::Display for FleetSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known = || {
            DeviceClass::ALL
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>()
                .join("|")
        };
        match self {
            FleetSpecError::Empty => {
                write!(
                    f,
                    "empty fleet spec (try default, mixed or class:weight,...)"
                )
            }
            FleetSpecError::NoColon { entry } => {
                write!(f, "fleet entry {entry:?} is not class:weight")
            }
            FleetSpecError::UnknownClass { token } => {
                write!(f, "unknown device class {token:?} (try {})", known())
            }
            FleetSpecError::BadWeight { token } => {
                write!(
                    f,
                    "fleet weight {token:?} is not a finite non-negative number"
                )
            }
            FleetSpecError::DuplicateClass { class } => {
                write!(f, "device class {class} appears twice in the fleet spec")
            }
            FleetSpecError::ZeroTotal => write!(f, "fleet spec weights sum to zero"),
        }
    }
}

impl std::error::Error for FleetSpecError {}

/// The class mix of a campaign fleet: which device classes are
/// present and at what share. Assignment is deterministic in the
/// phone id (no RNG), so any worker, shard or resumed process agrees
/// on every phone's class.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetComposition {
    /// `(class, share)` in [`DeviceClass::ALL`] order; shares are
    /// normalized to sum to 1 and strictly positive.
    shares: Vec<(DeviceClass, f64)>,
}

impl Default for FleetComposition {
    /// The homogeneous pre-composition fleet: every phone a
    /// [`DeviceClass::Smartphone`].
    fn default() -> Self {
        FleetComposition {
            shares: vec![(DeviceClass::Smartphone, 1.0)],
        }
    }
}

impl FleetComposition {
    /// The built-in heterogeneous preset (`--fleet mixed`): a
    /// communicator-heavy enterprise tranche, a mainstream majority
    /// and an entry-level tail.
    pub fn mixed() -> Self {
        FleetComposition {
            shares: vec![
                (DeviceClass::Communicator, 0.24),
                (DeviceClass::Smartphone, 0.60),
                (DeviceClass::EntryLevel, 0.16),
            ],
        }
    }

    /// Parse a `--fleet` spec: `default`, `mixed`, or a comma list of
    /// `class:weight` entries (weights are relative and normalized).
    pub fn parse(spec: &str) -> Result<FleetComposition, FleetSpecError> {
        let spec = spec.trim();
        match spec {
            "" => return Err(FleetSpecError::Empty),
            "default" => return Ok(FleetComposition::default()),
            "mixed" => return Ok(FleetComposition::mixed()),
            _ => {}
        }
        let mut weights: Vec<(DeviceClass, f64)> = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            let (class_tok, weight_tok) = entry.split_once(':').ok_or(FleetSpecError::NoColon {
                entry: entry.to_string(),
            })?;
            let class =
                DeviceClass::parse(class_tok.trim()).ok_or(FleetSpecError::UnknownClass {
                    token: class_tok.trim().to_string(),
                })?;
            let weight: f64 = weight_tok
                .trim()
                .parse()
                .map_err(|_| FleetSpecError::BadWeight {
                    token: weight_tok.trim().to_string(),
                })?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(FleetSpecError::BadWeight {
                    token: weight_tok.trim().to_string(),
                });
            }
            if weights.iter().any(|&(c, _)| c == class) {
                return Err(FleetSpecError::DuplicateClass { class });
            }
            weights.push((class, weight));
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Err(FleetSpecError::ZeroTotal);
        }
        // Canonical order and normalized shares, so equal mixes
        // written in different orders produce the same composition.
        let mut shares: Vec<(DeviceClass, f64)> = DeviceClass::ALL
            .into_iter()
            .filter_map(|class| {
                weights
                    .iter()
                    .find(|&&(c, w)| c == class && w > 0.0)
                    .map(|&(_, w)| (class, w / total))
            })
            .collect();
        if shares.len() == 1 {
            // A single surviving class owns the whole fleet exactly.
            shares[0].1 = 1.0;
        }
        Ok(FleetComposition { shares })
    }

    /// Whether this is the homogeneous default composition.
    pub fn is_default(&self) -> bool {
        self.shares == [(DeviceClass::Smartphone, 1.0)]
    }

    /// The canonical spec string: `default` for the homogeneous
    /// fleet, otherwise `class:share,...` in [`DeviceClass::ALL`]
    /// order with normalized shares. Two compositions are equal iff
    /// their canonical specs are — this string is what the campaign
    /// fingerprint and the checkpoint header carry.
    pub fn spec_string(&self) -> String {
        if self.is_default() {
            return "default".to_string();
        }
        self.shares
            .iter()
            .map(|(c, s)| format!("{}:{}", c.as_str(), s))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Stratified class assignment for phone `id` of `fleet` phones:
    /// the same fixed-coprime-permutation shape as
    /// [`SymbianVersion::assign`] (different constants, so class and
    /// firmware strata are decorrelated), honouring the share quotas
    /// up to rounding. Consumes no RNG and ignores the seed.
    pub fn assign(&self, id: u32, fleet: u32) -> DeviceClass {
        let n = fleet.max(1) as u64;
        let slot = ((id as u64 * 17 + 5) % n) as f64 + 0.5;
        let pos = slot / n as f64;
        let mut acc = 0.0;
        for &(class, share) in &self.shares {
            acc += share;
            if pos < acc {
                return class;
            }
        }
        self.shares
            .last()
            .map(|&(c, _)| c)
            .unwrap_or(DeviceClass::Smartphone)
    }

    /// The full device profile of phone `id`: its class plus the
    /// firmware stratum [`SymbianVersion::assign`] gives it.
    pub fn profile(&self, id: u32, fleet: u32) -> DeviceProfile {
        DeviceProfile {
            class: self.assign(id, fleet),
            firmware: SymbianVersion::assign(id, fleet),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_homogeneous_and_bitwise_neutral() {
        let comp = FleetComposition::default();
        assert!(comp.is_default());
        assert_eq!(comp.spec_string(), "default");
        let base = CalibrationParams::default();
        for id in 0..100 {
            assert_eq!(comp.assign(id, 100), DeviceClass::Smartphone);
        }
        let profile = comp.profile(3, 100);
        assert_eq!(profile.scale_params(&base), base);
        let rates = crate::corruption::CorruptionProfile::Worst.rates();
        assert_eq!(profile.scale_corruption(rates), rates);
    }

    #[test]
    fn mixed_assignment_respects_quotas() {
        let comp = FleetComposition::mixed();
        let fleet = 250;
        let mut counts = std::collections::BTreeMap::new();
        for id in 0..fleet {
            *counts.entry(comp.assign(id, fleet)).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3, "all classes present: {counts:?}");
        for &(class, share) in &comp.shares {
            let expected = share * fleet as f64;
            let got = counts[&class] as f64;
            assert!(
                (got - expected).abs() <= 2.0,
                "{class}: got {got}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn assignment_is_deterministic_and_decorrelated_from_firmware() {
        let comp = FleetComposition::mixed();
        for fleet in [1u32, 2, 5, 25, 250] {
            for id in 0..fleet {
                assert_eq!(comp.assign(id, fleet), comp.assign(id, fleet));
            }
        }
        // The class permutation must not shadow the firmware one:
        // within the majority firmware stratum, several classes occur.
        let fleet = 250;
        let mut v80_classes = std::collections::BTreeSet::new();
        for id in 0..fleet {
            if SymbianVersion::assign(id, fleet) == SymbianVersion::V8_0 {
                v80_classes.insert(comp.assign(id, fleet));
            }
        }
        assert!(
            v80_classes.len() >= 2,
            "strata decorrelated: {v80_classes:?}"
        );
    }

    #[test]
    fn parse_round_trips_and_normalizes() {
        let comp = FleetComposition::parse("smartphone:2, communicator:2").unwrap();
        assert_eq!(
            &comp.shares,
            &[
                (DeviceClass::Communicator, 0.5),
                (DeviceClass::Smartphone, 0.5)
            ]
        );
        let spec = comp.spec_string();
        assert_eq!(FleetComposition::parse(&spec).unwrap(), comp);
        assert_eq!(
            FleetComposition::parse("default").unwrap(),
            FleetComposition::default()
        );
        assert_eq!(
            FleetComposition::parse("mixed").unwrap(),
            FleetComposition::mixed()
        );
        // A zero-weight class drops out; a lone survivor owns it all.
        let solo = FleetComposition::parse("communicator:3,entry-level:0").unwrap();
        assert_eq!(solo.shares, &[(DeviceClass::Communicator, 1.0)]);
    }

    #[test]
    fn parse_errors_are_typed() {
        use FleetSpecError as E;
        assert_eq!(FleetComposition::parse("  "), Err(E::Empty));
        assert_eq!(
            FleetComposition::parse("smartphone"),
            Err(E::NoColon {
                entry: "smartphone".into()
            })
        );
        assert_eq!(
            FleetComposition::parse("tablet:1"),
            Err(E::UnknownClass {
                token: "tablet".into()
            })
        );
        assert_eq!(
            FleetComposition::parse("smartphone:lots"),
            Err(E::BadWeight {
                token: "lots".into()
            })
        );
        assert_eq!(
            FleetComposition::parse("smartphone:-1"),
            Err(E::BadWeight { token: "-1".into() })
        );
        assert_eq!(
            FleetComposition::parse("smartphone:1,smartphone:2"),
            Err(E::DuplicateClass {
                class: DeviceClass::Smartphone
            })
        );
        assert_eq!(
            FleetComposition::parse("smartphone:0,communicator:0"),
            Err(E::ZeroTotal)
        );
    }

    #[test]
    fn class_multipliers_are_ordered_by_segment() {
        let mut last_usage = f64::INFINITY;
        let mut last_fault = f64::INFINITY;
        for class in DeviceClass::ALL {
            assert!(class.usage_multiplier() < last_usage);
            assert!(class.fault_multiplier() <= last_fault);
            last_usage = class.usage_multiplier();
            last_fault = class.fault_multiplier();
        }
        assert_eq!(DeviceClass::Smartphone.usage_multiplier(), 1.0);
        assert_eq!(DeviceClass::Smartphone.fault_multiplier(), 1.0);
        assert_eq!(DeviceClass::Smartphone.corruption_tendency(), 1.0);
    }
}
