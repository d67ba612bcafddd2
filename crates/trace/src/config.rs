//! Tracer configuration: sink selection and output path, from the
//! environment (`TMR_TRACE`, `TMR_TRACE_FILE`) or programmatically.

use std::path::PathBuf;

/// Where rendered trace output goes on [`flush`](crate::flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Tracing disabled; instrumentation is a single atomic branch.
    Off,
    /// Indented span tree plus counters on stderr.
    Human,
    /// Chrome `trace_event` JSON, loadable in Perfetto / `chrome://tracing`.
    Chrome,
    /// Records retained in memory for [`drain_tree`](crate::drain_tree);
    /// used by tests and embedding tools.
    Memory,
}

/// Programmatic tracer configuration. Install with
/// [`configure`](crate::configure), or let the first instrumentation call
/// read [`TraceConfig::from_env`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    sink: Sink,
    file: Option<PathBuf>,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        TraceConfig {
            sink: Sink::Off,
            file: None,
        }
    }

    /// Human-readable stderr output.
    pub fn human() -> Self {
        TraceConfig {
            sink: Sink::Human,
            file: None,
        }
    }

    /// Chrome `trace_event` output.
    pub fn chrome() -> Self {
        TraceConfig {
            sink: Sink::Chrome,
            file: None,
        }
    }

    /// In-memory collection for [`drain_tree`](crate::drain_tree).
    pub fn memory() -> Self {
        TraceConfig {
            sink: Sink::Memory,
            file: None,
        }
    }

    /// Reads `TMR_TRACE` (`off|human|chrome|memory`; unset, empty or
    /// unknown values mean off) and `TMR_TRACE_FILE`.
    pub fn from_env() -> Self {
        let sink = match std::env::var("TMR_TRACE").as_deref() {
            Ok("human") => Sink::Human,
            Ok("chrome") => Sink::Chrome,
            Ok("memory") => Sink::Memory,
            _ => Sink::Off,
        };
        let file = std::env::var_os("TMR_TRACE_FILE")
            .filter(|path| !path.is_empty())
            .map(PathBuf::from);
        TraceConfig { sink, file }
    }

    /// The configured sink.
    pub fn sink(&self) -> Sink {
        self.sink
    }

    /// The output path of the Chrome sink: the configured one, or
    /// `tmr_trace.json`.
    pub fn file_or_default(&self) -> PathBuf {
        self.file
            .clone()
            .unwrap_or_else(|| PathBuf::from("tmr_trace.json"))
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_with_a_chrome_file_name() {
        assert_eq!(TraceConfig::default().sink(), Sink::Off);
        assert_eq!(
            TraceConfig::chrome().file_or_default(),
            PathBuf::from("tmr_trace.json")
        );
    }
}
