//! The Prometheus text exposition format: rendering, parsing, and the
//! matching scrape client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;

use crate::registry::{derived_name, Registry, BUCKET_EDGES_US};
use crate::MetricKind;

/// Formats one value the way it parses back exactly: integers bare,
/// fractions via Rust's shortest-round-trip float formatting.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders the registry in the Prometheus text exposition format:
/// `# HELP`/`# TYPE` per family, one `name{labels} value` line per cell,
/// and the bucket/sum/count triplet per histogram.
pub fn render(registry: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    let scalars = registry.inner.scalars.lock().expect("registry lock");
    let mut seen_family: Vec<&str> = Vec::new();
    for e in scalars.iter() {
        if !seen_family.contains(&e.family.as_str()) {
            seen_family.push(&e.family);
            if !e.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", e.family, e.help));
            }
            let kind = match e.cell.kind() {
                MetricKind::Counter => "counter",
                MetricKind::Gauge | MetricKind::FloatGauge => "gauge",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", e.family));
        }
        out.push_str(&format!("{} {}\n", e.full_name, fmt_value(e.cell.get_value())));
    }
    let histograms = registry.inner.histograms.lock().expect("registry lock");
    for e in histograms.iter() {
        if !e.help.is_empty() {
            out.push_str(&format!("# HELP {} {}\n", e.family, e.help));
        }
        out.push_str(&format!("# TYPE {} histogram\n", e.family));
        let mut cumulative = 0u64;
        for (i, &edge) in BUCKET_EDGES_US.iter().enumerate() {
            cumulative += e.histogram.buckets[i].load(Ordering::Relaxed);
            let le = fmt_value(edge as f64 / 1e6);
            let bucket = bucket_name(&e.full_name, &le);
            out.push_str(&format!("{bucket} {cumulative}\n"));
        }
        let count = e.histogram.count();
        out.push_str(&format!("{} {count}\n", bucket_name(&e.full_name, "+Inf")));
        let sum = e.histogram.sum_micros() as f64 / 1e6;
        out.push_str(&format!("{} {}\n", derived_name(&e.full_name, "_sum"), fmt_value(sum)));
        out.push_str(&format!("{} {count}\n", derived_name(&e.full_name, "_count")));
    }
    out
}

/// `a{x="1"}` + le → `a_bucket{x="1",le="..."}`; bare `a` → `a_bucket{le="..."}`.
fn bucket_name(full: &str, le: &str) -> String {
    match full.find('{') {
        Some(i) => {
            format!("{}_bucket{},le=\"{le}\"}}", &full[..i], &full[i..full.len() - 1])
        }
        None => format!("{full}_bucket{{le=\"{le}\"}}"),
    }
}

/// Parses exposition text back into `(full name incl. labels, value)`
/// pairs, in document order. Comment and blank lines are skipped;
/// malformed value fields are skipped rather than failing the scrape.
pub fn parse_text(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The name may contain spaces only inside a quoted label value;
        // split at the last space outside quotes.
        let split = match line.rfind('}') {
            Some(brace) => line[brace..].find(' ').map(|i| brace + i),
            None => line.find(' '),
        };
        let Some(split) = split else { continue };
        let (name, value) = (line[..split].trim(), line[split..].trim());
        if let Ok(v) = value.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Fetches the raw exposition text from a telemetry endpoint.
///
/// # Errors
///
/// Propagates connection and read failures.
pub fn scrape_text(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(2))?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    // Strip the response head; the body is everything past the blank line.
    let body = response.split_once("\r\n\r\n").map_or(response.as_str(), |(_, b)| b);
    Ok(body.to_string())
}

/// Scrapes a telemetry endpoint and parses the result: the round trip of
/// [`render`] through [`parse_text`] over real TCP.
///
/// # Errors
///
/// Propagates connection and read failures.
pub fn scrape(addr: SocketAddr) -> std::io::Result<Vec<(String, f64)>> {
    Ok(parse_text(&scrape_text(addr)?))
}

/// Whether the sample `name` (as [`parse_text`] or a [`crate::TelemetrySeries`]
/// names it) belongs to metric `family`: the bare family name, or the
/// family with a label set (`family{shard="0"}`), never a longer name that
/// merely starts the same way.
pub fn in_family(name: &str, family: &str) -> bool {
    name.strip_prefix(family).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
}

/// Sums every sample of one family (see [`in_family`]) — totalling a
/// per-shard metric across one scrape.
pub fn family_sum(samples: &[(String, f64)], family: &str) -> f64 {
    samples.iter().filter(|(n, _)| in_family(n, family)).map(|(_, v)| v).sum()
}

/// Mean of every sample of one family, or `None` when none is present.
pub fn family_mean(samples: &[(String, f64)], family: &str) -> Option<f64> {
    let (count, sum) = samples
        .iter()
        .filter(|(n, _)| in_family(n, family))
        .fold((0usize, 0.0), |(count, sum), (_, v)| (count + 1, sum + v));
    (count > 0).then(|| sum / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn render_parses_back_to_the_same_values() {
        let r = Registry::new();
        let c = r.counter("dg_total", "datagrams", &[("shard", "0".to_string())]);
        let c1 = r.counter("dg_total", "datagrams", &[("shard", "1".to_string())]);
        let g = r.gauge_f64("pct", "completeness", &[]);
        let h = r.histogram("phase_seconds", "phase wall time", &[("phase", "park".to_string())]);
        c.store(123);
        c1.store(456);
        g.store_f64(98.5);
        h.observe_micros(300);
        h.observe_micros(900);

        let text = render(&r);
        let parsed = parse_text(&text);
        let get = |name: &str| {
            parsed
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
                .1
        };
        assert_eq!(get("dg_total{shard=\"0\"}"), 123.0);
        assert_eq!(get("dg_total{shard=\"1\"}"), 456.0);
        assert_eq!(get("pct"), 98.5);
        assert_eq!(get("phase_seconds_count{phase=\"park\"}"), 2.0);
        assert!((get("phase_seconds_sum{phase=\"park\"}") - 0.0012).abs() < 1e-12);
        // Cumulative buckets: 300 µs is within the 512 µs edge, 900 µs
        // only within 1024 µs.
        assert_eq!(get("phase_seconds_bucket{phase=\"park\",le=\"0.000512\"}"), 1.0);
        assert_eq!(get("phase_seconds_bucket{phase=\"park\",le=\"0.001024\"}"), 2.0);
        assert_eq!(get("phase_seconds_bucket{phase=\"park\",le=\"+Inf\"}"), 2.0);
    }

    #[test]
    fn type_lines_appear_once_per_family() {
        let r = Registry::new();
        r.counter("x_total", "x", &[("shard", "0".to_string())]);
        r.counter("x_total", "x", &[("shard", "1".to_string())]);
        let text = render(&r);
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
    }

    #[test]
    fn family_folds_take_bare_and_labelled_samples_only() {
        let samples = parse_text(
            "dg_total{shard=\"0\"} 3\ndg_total 4\ndg_totals_other 100\npct{shard=\"0\"} 90\npct{shard=\"1\"} 80\n",
        );
        assert_eq!(family_sum(&samples, "dg_total"), 7.0, "a longer name is another family");
        assert_eq!(family_mean(&samples, "dg_total"), Some(3.5));
        assert_eq!(family_mean(&samples, "pct"), Some(85.0));
        assert_eq!(family_sum(&samples, "absent"), 0.0);
        assert_eq!(family_mean(&samples, "absent"), None);
    }

    #[test]
    fn parse_skips_comments_and_garbage() {
        let parsed = parse_text("# HELP a b\n\na 1\nbroken line without value x\nb{l=\"s p\"} 2\n");
        assert_eq!(parsed, vec![("a".to_string(), 1.0), ("b{l=\"s p\"}".to_string(), 2.0)]);
    }
}
