//! The result of one benchmark run: metrics with units, operation
//! counts, and the one-line JSON summary printed last on stdout.

use std::fmt::Write;

use crate::calib::Calibration;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, clock and source, printed beside the value.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON summary.
    pub lines: Vec<String>,
    pub cal: Calibration,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A host-clock time at the reference host speed (see
    /// [`crate::calib`]), with the `raw` value it came from in the note.
    pub fn host_metric(
        &mut self,
        name: &str,
        value: f64,
        raw: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metric(name, value, unit, format!("{}; raw {raw:.6e}", note.into()));
    }

    /// [`Outcome::host_metric`] for a raw time scaled by a calibration
    /// `factor`.
    pub fn host_scaled(
        &mut self,
        name: &str,
        raw: f64,
        unit: &'static str,
        note: impl Into<String>,
        factor: f64,
    ) {
        self.host_metric(name, raw * factor, raw, unit, note);
    }

    /// Count one checked operation; a failed check is reported and
    /// counted as failed.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("FAILED: {}", what.into()));
        }
        ok
    }

    /// Count `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Correct when nothing failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    /// with every value at full precision.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_trace::json::Json;

    #[test]
    fn json_line_round_trips_every_digit() {
        let mut o = Outcome::default();
        o.host_metric("exec_s", 0.123_456_789_012_345_67, 0.2, "s", "n=11");
        o.metric("gpu_mem_peak_bytes", 12_582_912.0, "bytes", "");
        o.metric("sim_exec_ns_per_pt", 6.302_013e-1, "ns/pt", "");
        o.metric("tiny", 1.5e-300, "1", "");
        o.check(true, "ok");
        let doc = Json::parse(&o.json_line()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = doc.get("metrics").unwrap();
        for m in &o.metrics {
            let got = metrics.get(&m.name).expect("metric present");
            assert_eq!(
                got.get("value").unwrap().as_f64(),
                Some(m.value),
                "{}",
                m.name
            );
            assert_eq!(got.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(got.as_object().unwrap().len(), 2);
        }
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "a run that attempted nothing is not correct");
        o.check(true, "first");
        assert!(o.correct());
        o.metric("ratio", f64::NAN, "1", "");
        assert!(!o.correct());
        // the summary stays valid JSON even then
        assert!(Json::parse(&o.json_line()).is_ok());

        let mut o = Outcome::default();
        o.check(false, "wrong output");
        assert_eq!((o.attempted, o.failed), (1, 1));
        assert!(!o.correct());
        assert!(o.lines[0].contains("wrong output"));
    }
}
