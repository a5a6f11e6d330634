//! The per-run telemetry bundle: one registry, its scrape endpoint and
//! its sampler, started and stopped together.

use std::net::SocketAddr;

use crate::{serve, Registry, Sampler, TelemetryConfig, TelemetrySeries};

/// Everything one running cluster needs for live observability, bundled:
/// the [`Registry`] its workers register cells in, the scrape endpoint
/// serving it, and the [`Sampler`] folding it into the snapshot ring.
///
/// Runtimes hold a `Hub` for the duration of a run and call
/// [`Hub::finish`] at the end to collect the time series for the report.
#[derive(Debug)]
pub struct Hub {
    registry: Registry,
    server: crate::TelemetryServer,
    sampler: Sampler,
}

impl Hub {
    /// Starts the endpoint and the sampler per `config`.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the scrape address is unavailable.
    pub fn start(config: &TelemetryConfig) -> std::io::Result<Hub> {
        let registry = Registry::new();
        let server = serve(config.scrape_addr, registry.clone())?;
        let sampler = Sampler::start(registry.clone(), config.sample_period, config.ring_capacity);
        Ok(Hub { registry, server, sampler })
    }

    /// The registry workers register their cells in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The address the scrape endpoint actually bound.
    pub fn scrape_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the endpoint and the sampler; returns the accumulated series
    /// (always ending with a final full snapshot).
    pub fn finish(mut self) -> TelemetrySeries {
        self.server.shutdown();
        self.sampler.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrape;

    #[test]
    fn hub_serves_samples_and_finishes() {
        let config = TelemetryConfig {
            sample_period: std::time::Duration::from_millis(10),
            ..TelemetryConfig::default()
        };
        let hub = Hub::start(&config).expect("hub starts");
        let c = hub.registry().counter("hub_total", "", &[]);
        c.store(3);
        let scraped = scrape(hub.scrape_addr()).expect("scrapes");
        assert!(scraped.contains(&("hub_total".to_string(), 3.0)));
        std::thread::sleep(std::time::Duration::from_millis(40));
        let series = hub.finish();
        assert_eq!(series.names, vec!["hub_total".to_string()]);
        assert_eq!(series.final_total("hub_total"), 3.0);
        assert!(series.snapshots.len() >= 2);
    }
}
