//! The application catalog.
//!
//! The applications observed running at panic time in the paper's
//! Table 4: the built-in suite (Messages, Telephone, Log, Clock,
//! Contacts, Camera) plus the third-party applications the study's
//! users had installed (TomTom, FExplorer, BT_Browser). Launch
//! weights and session lengths shape the Figure 6 concurrency
//! distribution and the Table 4 application shares.

use serde::{Deserialize, Serialize};

/// A catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Application name as it appears in the running-apps list.
    pub name: &'static str,
    /// Relative launch frequency.
    pub launch_weight: f64,
    /// Median session duration, seconds.
    pub session_median_secs: f64,
    /// Log-normal sigma of the session duration.
    pub session_sigma: f64,
}

/// The catalog, ordered roughly by the paper's Table 4 prominence.
pub const CATALOG: [AppSpec; 9] = [
    AppSpec {
        name: "Messages",
        launch_weight: 26.0,
        session_median_secs: 90.0,
        session_sigma: 0.8,
    },
    AppSpec {
        name: "Log",
        launch_weight: 18.0,
        session_median_secs: 45.0,
        session_sigma: 0.7,
    },
    AppSpec {
        name: "Telephone",
        launch_weight: 14.0,
        session_median_secs: 60.0,
        session_sigma: 0.8,
    },
    AppSpec {
        name: "Camera",
        launch_weight: 12.0,
        session_median_secs: 120.0,
        session_sigma: 0.9,
    },
    AppSpec {
        name: "Clock",
        launch_weight: 10.0,
        session_median_secs: 30.0,
        session_sigma: 0.6,
    },
    AppSpec {
        name: "Contacts",
        launch_weight: 9.0,
        session_median_secs: 40.0,
        session_sigma: 0.7,
    },
    AppSpec {
        name: "TomTom",
        launch_weight: 5.0,
        session_median_secs: 900.0,
        session_sigma: 0.8,
    },
    AppSpec {
        name: "FExplorer",
        launch_weight: 3.0,
        session_median_secs: 150.0,
        session_sigma: 0.8,
    },
    AppSpec {
        name: "BT_Browser",
        launch_weight: 3.0,
        session_median_secs: 200.0,
        session_sigma: 0.9,
    },
];

/// Looks up an app by name.
pub fn by_name(name: &str) -> Option<&'static AppSpec> {
    CATALOG.iter().find(|a| a.name == name)
}

/// The launch weights, aligned with [`CATALOG`] order (built at
/// compile time, so drawing an application allocates nothing).
pub const LAUNCH_WEIGHTS: [f64; CATALOG.len()] = {
    let mut weights = [0.0; CATALOG.len()];
    let mut i = 0;
    while i < CATALOG.len() {
        weights[i] = CATALOG[i].launch_weight;
        i += 1;
    }
    weights
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_unique() {
        let mut names: Vec<&str> = CATALOG.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
    }

    #[test]
    fn messages_is_most_launched() {
        let max = CATALOG
            .iter()
            .max_by(|a, b| a.launch_weight.partial_cmp(&b.launch_weight).unwrap())
            .unwrap();
        assert_eq!(max.name, "Messages");
    }

    #[test]
    fn lookup() {
        assert!(by_name("Camera").is_some());
        assert!(by_name("Nope").is_none());
    }

    #[test]
    fn weights_positive_and_aligned() {
        assert!(LAUNCH_WEIGHTS.iter().all(|&x| x > 0.0));
        for (w, app) in LAUNCH_WEIGHTS.iter().zip(&CATALOG) {
            assert_eq!(w.to_bits(), app.launch_weight.to_bits(), "{}", app.name);
        }
    }
}
