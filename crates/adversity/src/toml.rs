//! A TOML-subset loader for adversity specs.
//!
//! The build is fully offline (no registry crates), so this module parses
//! exactly the subset an [`AdversitySpec`] needs — `[section]` and
//! `[[array-of-tables]]` headers with `key = value` pairs, comments and
//! blank lines — instead of pulling in a TOML crate. The grammar is small
//! enough that the whole parser fits in a screen and rejects anything it
//! does not understand loudly: an unknown section, a key its section
//! does not read (a typo such as `mean_downtim_secs`), a key given twice.
//!
//! The loader is shared: [`parse_sections`] splits any file of the subset
//! into [`Section`]s, and a reader takes the sections it knows and hands
//! the rest to [`AdversitySpec::from_sections`] — the deployment file of
//! `gossip-deploy` is read this way, so one grammar and one unknown-key
//! rule cover both file types. Values are numbers or double-quoted
//! strings; no adversity key takes a string.
//!
//! # Spec format
//!
//! ```toml
//! [catastrophic]
//! at_secs = 60.0
//! fraction = 0.8
//!
//! [churn]
//! start_secs = 10.0
//! end_secs = 120.0
//! leaves_per_sec = 0.5
//! mean_downtime_secs = 20.0   # omit for permanent departures
//!
//! [flash_crowd]
//! at_secs = 30.0
//! count = 50
//! spread_secs = 2.0
//!
//! [free_riders]
//! fraction = 0.2
//!
//! [[bandwidth_class]]
//! fraction = 0.5
//! cap_kbps = 700
//!
//! [[bandwidth_class]]
//! fraction = 0.5
//! cap_kbps = 300                # cap_kbps = 0 means "uncapped"
//!
//! [byzantine]
//! fraction = 0.2
//! serve_corrupt = 1.0           # behaviour-mix weights; all omitted =
//! propose_garbage = 0.0         # pure serve-corruptors
//! eat_requests = 0.0
//!
//! [[partition]]
//! at_secs = 30.0
//! heal_secs = 60.0
//! cells = 2
//!
//! [[throttle]]
//! start_secs = 20.0
//! end_secs = 40.0
//! fraction = 0.5
//! cap_kbps = 100                # cap_kbps = 0 means "uncapped"
//!
//! [chaos]                       # syscall-boundary faults (reactor only)
//! drop = 0.05                   # per-datagram mutation probabilities
//! duplicate = 0.02
//! reorder = 0.05
//! delay = 0.02
//! truncate = 0.01
//! eagain = 0.02                 # per-syscall errno probabilities
//! eintr = 0.01
//! short_send = 0.05
//! enobufs_at_secs = 2.0         # timed ENOBUFS burst...
//! enobufs_secs = 1.0            # ...lasting this long (default 1 s)
//! kill_socket_at_secs = 3.0     # one socket per shard dies (re-bind)
//! ```

use std::cell::Cell;

use gossip_types::Duration;

use crate::spec::{AdversitySpec, BandwidthClass};

/// A parse or validation error, with the offending line when applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError(pub String);

impl std::fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "adversity spec: {}", self.0)
    }
}

impl std::error::Error for SpecParseError {}

/// A key's value: a number, or a double-quoted string.
#[derive(Debug)]
enum Value {
    Number(f64),
    Text(String),
}

/// One parsed `[section]` (or `[[section]]` instance) and its keys.
///
/// Reading a key marks it read; [`Section::reject_unread`] then turns
/// every key the reader never asked for into an error, so a misspelt key
/// fails loudly instead of leaving its setting at the default.
#[derive(Debug)]
pub struct Section {
    name: String,
    keys: Vec<(String, Value, Cell<bool>)>,
}

impl Section {
    /// The section's name, without brackets.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn value(&self, key: &str) -> Option<&Value> {
        let (_, value, read) = self.keys.iter().find(|(k, ..)| k == key)?;
        read.set(true);
        Some(value)
    }

    /// The number under `key`, if the section has one.
    ///
    /// # Errors
    ///
    /// Fails when the value is a quoted string.
    pub fn get(&self, key: &str) -> Result<Option<f64>, SpecParseError> {
        match self.value(key) {
            None => Ok(None),
            Some(&Value::Number(v)) => Ok(Some(v)),
            Some(Value::Text(_)) => {
                Err(SpecParseError(format!("[{}] `{key}` must be a number", self.name)))
            }
        }
    }

    /// The number under `key`.
    ///
    /// # Errors
    ///
    /// Fails when the key is missing or its value is a quoted string.
    pub fn require(&self, key: &str) -> Result<f64, SpecParseError> {
        self.get(key)?.ok_or_else(|| SpecParseError(format!("[{}] is missing `{key}`", self.name)))
    }

    /// The quoted string under `key`, if the section has one.
    ///
    /// # Errors
    ///
    /// Fails when the value is a number.
    pub fn text(&self, key: &str) -> Result<Option<&str>, SpecParseError> {
        match self.value(key) {
            None => Ok(None),
            Some(Value::Text(text)) => Ok(Some(text)),
            Some(Value::Number(_)) => {
                Err(SpecParseError(format!("[{}] `{key}` must be a quoted string", self.name)))
            }
        }
    }

    /// Fails on the first key no getter has read: the reader of this
    /// section does not know it.
    ///
    /// # Errors
    ///
    /// Names the key and the section.
    pub fn reject_unread(&self) -> Result<(), SpecParseError> {
        match self.keys.iter().find(|(.., read)| !read.get()) {
            Some((key, ..)) => {
                Err(SpecParseError(format!("unknown key `{key}` in [{}]", self.name)))
            }
            None => Ok(()),
        }
    }
}

/// Splits a file of the TOML subset into its sections, in file order.
///
/// # Errors
///
/// Names the line of anything outside the subset: a key outside any
/// section, a value that is neither a number nor a quoted string, a key
/// given twice in one section, or a `[section]` given twice.
pub fn parse_sections(input: &str) -> Result<Vec<Section>, SpecParseError> {
    let mut sections: Vec<Section> = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let err = |msg: String| SpecParseError(format!("line {}: {msg}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            sections.push(Section { name: header.trim().to_string(), keys: Vec::new() });
        } else if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = header.trim().to_string();
            if sections.iter().any(|s| s.name == name) {
                return Err(SpecParseError(format!("duplicate section [{name}]")));
            }
            sections.push(Section { name, keys: Vec::new() });
        } else if let Some((key, value)) = line.split_once('=') {
            let section =
                sections.last_mut().ok_or_else(|| err("key outside any [section]".to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            if section.keys.iter().any(|(k, ..)| k == key) {
                return Err(err(format!("duplicate key `{key}` in [{}]", section.name)));
            }
            let value = match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                Some(text) => Value::Text(text.to_string()),
                None => Value::Number(
                    value.parse().map_err(|_| err(format!("`{value}` is not a number")))?,
                ),
            };
            section.keys.push((key.to_string(), value, Cell::new(false)));
        } else {
            return Err(err(format!("cannot parse `{line}`")));
        }
    }
    Ok(sections)
}

fn secs(v: f64, what: &str) -> Result<Duration, SpecParseError> {
    if v.is_finite() && v >= 0.0 {
        Ok(Duration::from_secs_f64(v))
    } else {
        Err(SpecParseError(format!("{what} must be a non-negative number of seconds, got {v}")))
    }
}

impl AdversitySpec {
    /// Parses a spec from the TOML subset documented at the
    /// [module level](crate::toml).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] naming the offending line, missing or
    /// unknown key for any input outside the subset.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecParseError> {
        Self::from_sections(parse_sections(input)?)
    }

    /// Builds a spec from already-split sections (a file that carries
    /// other sections too hands over the ones it does not read itself).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] for an unknown section, a missing,
    /// unknown or out-of-range key.
    pub fn from_sections(sections: Vec<Section>) -> Result<Self, SpecParseError> {
        let mut spec = AdversitySpec::none();
        for section in sections {
            match section.name.as_str() {
                "catastrophic" => {
                    spec.catastrophic = Some(crate::spec::Catastrophic {
                        at: secs(section.require("at_secs")?, "at_secs")?,
                        fraction: {
                            let f = section.require("fraction")?;
                            if !(0.0..=1.0).contains(&f) {
                                return Err(SpecParseError(format!(
                                    "[catastrophic] fraction must be within [0, 1], got {f}"
                                )));
                            }
                            f
                        },
                    });
                }
                "churn" => {
                    let start = secs(section.require("start_secs")?, "start_secs")?;
                    let end = secs(section.require("end_secs")?, "end_secs")?;
                    if start > end {
                        return Err(SpecParseError("[churn] window is inverted".to_string()));
                    }
                    let rate = section.require("leaves_per_sec")?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return Err(SpecParseError(format!(
                            "[churn] leaves_per_sec must be positive, got {rate}"
                        )));
                    }
                    spec.churn = Some(crate::spec::PoissonChurn {
                        start,
                        end,
                        leaves_per_sec: rate,
                        mean_downtime: section
                            .get("mean_downtime_secs")?
                            .map(|v| secs(v, "mean_downtime_secs"))
                            .transpose()?,
                    });
                }
                "flash_crowd" => {
                    let count = section.require("count")?;
                    if count < 0.0 || count.fract() != 0.0 {
                        return Err(SpecParseError(format!(
                            "[flash_crowd] count must be a non-negative integer, got {count}"
                        )));
                    }
                    spec.flash_crowd = Some(crate::spec::FlashCrowd {
                        at: secs(section.require("at_secs")?, "at_secs")?,
                        count: count as usize,
                        spread: section
                            .get("spread_secs")?
                            .map_or(Ok(Duration::ZERO), |v| secs(v, "spread_secs"))?,
                    });
                }
                "free_riders" => {
                    let f = section.require("fraction")?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(SpecParseError(format!(
                            "[free_riders] fraction must be within [0, 1], got {f}"
                        )));
                    }
                    spec.free_rider_fraction = Some(f);
                }
                "bandwidth_class" => {
                    let kbps = section.require("cap_kbps")?;
                    if kbps < 0.0 {
                        return Err(SpecParseError("cap_kbps must be non-negative".to_string()));
                    }
                    spec.bandwidth_classes.push(BandwidthClass {
                        fraction: section.require("fraction")?,
                        cap_bps: if kbps == 0.0 { None } else { Some((kbps * 1000.0) as u64) },
                    });
                }
                "byzantine" => {
                    let f = section.require("fraction")?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(SpecParseError(format!(
                            "[byzantine] fraction must be within [0, 1], got {f}"
                        )));
                    }
                    let weight = |key: &str, default: f64| -> Result<f64, SpecParseError> {
                        let w = section.get(key)?.unwrap_or(default);
                        if w >= 0.0 && w.is_finite() {
                            Ok(w)
                        } else {
                            Err(SpecParseError(format!(
                                "[byzantine] {key} must be a non-negative weight, got {w}"
                            )))
                        }
                    };
                    let mix = crate::spec::ByzantineMix {
                        serve_corrupt: weight("serve_corrupt", 1.0)?,
                        propose_garbage: weight("propose_garbage", 0.0)?,
                        eat_requests: weight("eat_requests", 0.0)?,
                    };
                    spec.byzantine = Some(crate::spec::ByzantinePeers { fraction: f, mix });
                }
                "partition" => {
                    let at = secs(section.require("at_secs")?, "at_secs")?;
                    let heal = secs(section.require("heal_secs")?, "heal_secs")?;
                    if at >= heal {
                        return Err(SpecParseError(
                            "[[partition]] must heal strictly after it splits".to_string(),
                        ));
                    }
                    let cells = section.require("cells")?;
                    if cells < 2.0 || cells.fract() != 0.0 {
                        return Err(SpecParseError(format!(
                            "[[partition]] cells must be an integer ≥ 2, got {cells}"
                        )));
                    }
                    spec.partitions.push(crate::spec::PartitionSpec {
                        at,
                        heal,
                        cells: cells as usize,
                    });
                }
                "throttle" => {
                    let start = secs(section.require("start_secs")?, "start_secs")?;
                    let end = secs(section.require("end_secs")?, "end_secs")?;
                    if start >= end {
                        return Err(SpecParseError(
                            "[[throttle]] must end strictly after it starts".to_string(),
                        ));
                    }
                    let f = section.require("fraction")?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(SpecParseError(format!(
                            "[[throttle]] fraction must be within [0, 1], got {f}"
                        )));
                    }
                    let kbps = section.require("cap_kbps")?;
                    if kbps < 0.0 {
                        return Err(SpecParseError("cap_kbps must be non-negative".to_string()));
                    }
                    spec.throttles.push(crate::spec::ThrottleSpec {
                        start,
                        end,
                        fraction: f,
                        cap_bps: if kbps == 0.0 { None } else { Some((kbps * 1000.0) as u64) },
                    });
                }
                "chaos" => {
                    let prob = |key: &str| -> Result<f64, SpecParseError> {
                        let p = section.get(key)?.unwrap_or(0.0);
                        if (0.0..=1.0).contains(&p) {
                            Ok(p)
                        } else {
                            Err(SpecParseError(format!(
                                "[chaos] {key} must be within [0, 1], got {p}"
                            )))
                        }
                    };
                    let mut chaos = crate::chaos::ChaosSpec {
                        drop: prob("drop")?,
                        duplicate: prob("duplicate")?,
                        reorder: prob("reorder")?,
                        delay: prob("delay")?,
                        truncate: prob("truncate")?,
                        eagain: prob("eagain")?,
                        eintr: prob("eintr")?,
                        short_send: prob("short_send")?,
                        ..Default::default()
                    };
                    let enobufs_for = section.get("enobufs_secs")?.unwrap_or(1.0);
                    if let Some(at) = section.get("enobufs_at_secs")? {
                        chaos.enobufs_at = Some(secs(at, "enobufs_at_secs")?);
                        chaos.enobufs_for = secs(enobufs_for, "enobufs_secs")?;
                    }
                    if let Some(at) = section.get("kill_socket_at_secs")? {
                        chaos.kill_socket_at = Some(secs(at, "kill_socket_at_secs")?);
                    }
                    spec.chaos = chaos;
                }
                other => {
                    return Err(SpecParseError(format!("unknown section [{other}]")));
                }
            }
            section.reject_unread()?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r"
# every process at once
[catastrophic]
at_secs = 60.0
fraction = 0.8

[churn]
start_secs = 10
end_secs = 120
leaves_per_sec = 0.5
mean_downtime_secs = 20

[flash_crowd]
at_secs = 30
count = 50
spread_secs = 2

[free_riders]
fraction = 0.2

[[bandwidth_class]]
fraction = 0.5
cap_kbps = 700

[[bandwidth_class]]
fraction = 0.5
cap_kbps = 0

[byzantine]
fraction = 0.2
propose_garbage = 0.5

[[partition]]
at_secs = 30
heal_secs = 60
cells = 2

[[throttle]]
start_secs = 20
end_secs = 40
fraction = 0.5
cap_kbps = 100

[chaos]
drop = 0.05
duplicate = 0.02
reorder = 0.05
short_send = 0.1
enobufs_at_secs = 2
kill_socket_at_secs = 3
";

    #[test]
    fn full_spec_round_trips_every_field() {
        let spec = AdversitySpec::from_toml_str(FULL).expect("parses");
        let cat = spec.catastrophic.expect("catastrophic");
        assert_eq!(cat.at, Duration::from_secs(60));
        assert!((cat.fraction - 0.8).abs() < 1e-12);
        let churn = spec.churn.expect("churn");
        assert_eq!(churn.mean_downtime, Some(Duration::from_secs(20)));
        let fc = spec.flash_crowd.expect("flash crowd");
        assert_eq!(fc.count, 50);
        assert_eq!(fc.spread, Duration::from_secs(2));
        assert_eq!(spec.free_rider_fraction, Some(0.2));
        assert_eq!(spec.bandwidth_classes.len(), 2);
        assert_eq!(spec.bandwidth_classes[0].cap_bps, Some(700_000));
        assert_eq!(spec.bandwidth_classes[1].cap_bps, None, "0 kbps means uncapped");
        let byz = spec.byzantine.expect("byzantine");
        assert!((byz.fraction - 0.2).abs() < 1e-12);
        assert!((byz.mix.serve_corrupt - 1.0).abs() < 1e-12, "omitted weight defaults");
        assert!((byz.mix.propose_garbage - 0.5).abs() < 1e-12);
        assert_eq!(spec.partitions.len(), 1);
        assert_eq!(spec.partitions[0].cells, 2);
        assert_eq!(spec.partitions[0].heal, Duration::from_secs(60));
        assert_eq!(spec.throttles.len(), 1);
        assert_eq!(spec.throttles[0].cap_bps, Some(100_000));
        assert!((spec.chaos.drop - 0.05).abs() < 1e-12);
        assert!((spec.chaos.short_send - 0.1).abs() < 1e-12);
        assert_eq!(spec.chaos.enobufs_at, Some(Duration::from_secs(2)));
        assert_eq!(spec.chaos.enobufs_for, Duration::from_secs(1), "burst length defaults to 1 s");
        assert_eq!(spec.chaos.kill_socket_at, Some(Duration::from_secs(3)));
    }

    #[test]
    fn empty_chaos_section_keeps_the_spec_empty() {
        let spec = AdversitySpec::from_toml_str("[chaos]\n").expect("parses");
        assert!(spec.chaos.is_none());
        assert!(spec.is_none(), "an empty [chaos] section must not count as adversity");
    }

    #[test]
    fn empty_input_is_the_empty_spec() {
        let spec = AdversitySpec::from_toml_str("# nothing\n\n").expect("parses");
        assert!(spec.is_none());
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(AdversitySpec::from_toml_str("[unknown]\nx = 1\n")
            .unwrap_err()
            .0
            .contains("unknown section"));
        assert!(AdversitySpec::from_toml_str("x = 1\n").unwrap_err().0.contains("outside any"));
        assert!(AdversitySpec::from_toml_str("[catastrophic]\nat_secs = 1\n")
            .unwrap_err()
            .0
            .contains("missing `fraction`"));
        assert!(AdversitySpec::from_toml_str("[catastrophic]\nat_secs = 1\nfraction = 2\n")
            .unwrap_err()
            .0
            .contains("within [0, 1]"));
        assert!(AdversitySpec::from_toml_str(
            "[churn]\nstart_secs = 9\nend_secs = 1\nleaves_per_sec = 1\n"
        )
        .unwrap_err()
        .0
        .contains("inverted"));
        assert!(AdversitySpec::from_toml_str("[catastrophic]\nat_secs = oops\n")
            .unwrap_err()
            .0
            .contains("not a number"));
        assert!(AdversitySpec::from_toml_str("[byzantine]\nfraction = 2\n")
            .unwrap_err()
            .0
            .contains("within [0, 1]"));
        assert!(AdversitySpec::from_toml_str(
            "[[partition]]\nat_secs = 9\nheal_secs = 3\ncells = 2\n"
        )
        .unwrap_err()
        .0
        .contains("heal strictly after"));
        assert!(AdversitySpec::from_toml_str(
            "[[throttle]]\nstart_secs = 5\nend_secs = 5\nfraction = 0.5\ncap_kbps = 10\n"
        )
        .unwrap_err()
        .0
        .contains("end strictly after"));
        assert!(AdversitySpec::from_toml_str("[chaos]\ndrop = 2\n")
            .unwrap_err()
            .0
            .contains("within [0, 1]"));
        // A misspelt key is an error, not a silently defaulted setting.
        assert!(AdversitySpec::from_toml_str(
            "[churn]\nstart_secs = 1\nend_secs = 9\nleaves_per_sec = 1\nmean_downtim_secs = 20\n"
        )
        .unwrap_err()
        .0
        .contains("unknown key `mean_downtim_secs` in [churn]"));
        assert!(AdversitySpec::from_toml_str("[chaos]\ndorp = 0.5\n")
            .unwrap_err()
            .0
            .contains("unknown key `dorp` in [chaos]"));
        // The I/O path is fixed when a shard starts, not a fault to inject:
        // the retired key fails like any other unknown one.
        assert!(AdversitySpec::from_toml_str("[chaos]\nenosys_at_secs = 4\n")
            .unwrap_err()
            .0
            .contains("unknown key `enosys_at_secs` in [chaos]"));
        assert!(AdversitySpec::from_toml_str("[chaos]\ndrop = 0.1\ndrop = 0.2\n")
            .unwrap_err()
            .0
            .contains("line 3: duplicate key `drop`"));
        assert!(AdversitySpec::from_toml_str("[chaos]\ndrop = \"lots\"\n")
            .unwrap_err()
            .0
            .contains("must be a number"));
    }

    #[test]
    fn parsed_spec_compiles() {
        let spec = AdversitySpec::from_toml_str(FULL).expect("parses");
        let c = spec.compile(100, 3);
        assert_eq!(c.total_n, 150);
        assert!(c.timeline.is_order_sound(c.total_n));
    }
}
