//! Pure helpers behind the benchmark's report: sample statistics, metric
//! names and units, and the one-line JSON result.

use std::fmt::Write as _;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample (a per-step cost that never ran).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank percentile `q` of `samples`, refused unless at least
/// `min_beyond` samples lie strictly above the chosen rank — a tail
/// figure read off fewer samples than that is noise, not a percentile.
pub fn tail_percentile(samples: &[f64], q: f64, min_beyond: usize) -> Result<f64, String> {
    if !(q > 0.0 && q <= 1.0) {
        return Err(format!("percentile {q} outside (0, 1]"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < min_beyond {
        return Err(format!(
            "p{} of {n} samples leaves {} beyond it; need {min_beyond}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// Smallest sample count whose nearest-rank percentile `q` leaves
/// `min_beyond` samples beyond it.
pub fn samples_for_tail(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| tail_percentile(&vec![0.0; n], q, min_beyond).is_ok())
        .expect("some sample count supports any percentile below 1")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A metric name: 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// Refuses invalid or repeated names, invalid units and non-finite
/// values rather than printing a line a reader would misparse.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            body.push_str(", ");
        }
        // `{}` on f64 prints the shortest decimal that reads back to the
        // same bits, never in exponent form: valid JSON, all digits kept.
        write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_obs::reader::{parse_json, Json};

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: nearest rank 190 leaves exactly 10 above it.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.95, 10), Ok(190.0));
        // 199 samples: rank 190 leaves only 9.
        assert!(tail_percentile(&samples[..199], 0.95, 10).is_err());
        assert_eq!(samples_for_tail(0.95, 10), 200);
        assert_eq!(samples_for_tail(0.5, 10), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..300).map(|i| f64::from((i * 37) % 300)).collect();
        let a = tail_percentile(&samples, 0.95, 10);
        samples.reverse();
        assert_eq!(a, tail_percentile(&samples, 0.95, 10));
        assert_eq!(a, Ok(284.0));
    }

    #[test]
    fn percentile_rejects_empty_and_bad_q() {
        assert!(tail_percentile(&[], 0.5, 0).is_err());
        assert!(tail_percentile(&[1.0], 0.0, 0).is_err());
        assert!(tail_percentile(&[1.0], 1.5, 0).is_err());
        assert_eq!(tail_percentile(&[7.0], 1.0, 0), Ok(7.0));
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in ["tokens_per_s", "model.ref_step_ms", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "semi;colon",
            "quote\"",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_unit("tok/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_round_trips_through_the_obs_reader() {
        let metrics = [
            Metric::new("tokens_per_s", "tok/s", 3731.123456789),
            Metric::new("loss_dev", "nats", 0.0),
            Metric::new("tiny", "s", 1.25e-9),
            Metric::new("huge", "count", 12345678901234.0),
            Metric::new("neg", "%", -3.5),
        ];
        let line = render_result(true, 205, 0, &metrics).expect("valid metrics");
        assert!(!line.contains('\n'));
        let json = parse_json(&line).expect("the result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(205));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(fields)) = json.get("metrics") else {
            panic!("metrics is not an object: {line}");
        };
        assert_eq!(fields.len(), metrics.len());
        for (m, (name, value)) in metrics.iter().zip(fields) {
            assert_eq!(name, m.name);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(m.unit));
            let Some(Json::Num(v)) = value.get("value") else {
                panic!("{name} has no numeric value");
            };
            assert_eq!(v.to_bits(), m.value.to_bits(), "{name}");
        }
    }

    #[test]
    fn result_refuses_what_a_reader_would_misparse() {
        let dup = [Metric::new("a", "s", 1.0), Metric::new("a", "s", 2.0)];
        assert!(render_result(true, 1, 0, &dup).is_err());
        assert!(render_result(true, 1, 0, &[Metric::new("bad name", "s", 1.0)]).is_err());
        assert!(render_result(true, 1, 0, &[Metric::new("a", "bad unit", 1.0)]).is_err());
        assert!(render_result(true, 1, 0, &[Metric::new("a", "s", f64::NAN)]).is_err());
        assert!(render_result(true, 1, 0, &[Metric::new("a", "s", f64::INFINITY)]).is_err());
    }
}
