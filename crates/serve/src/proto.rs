//! The daemon's JSON request/response protocol.
//!
//! Requests are decoded with the same recursive-descent parser
//! ([`priste_obs::json`]) the metrics artifacts use; responses are
//! hand-serialized strings, matching the zero-dependency discipline of
//! the exporters. Cell indices on the wire are **0-based** (the
//! [`priste_geo::CellId`] tuple value), and non-finite numbers serialize as `null`
//! exactly like the metrics JSON schema.

use priste_calibrate::Decision;
use priste_markov::TransitionProvider;
use priste_obs::json::{self, Json};
use priste_online::{EnforcedRelease, Session, UserReport, Verdict};

/// JSON has no Inf/NaN literals; map them to `null` (the convention the
/// metrics exporter already uses).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Body of `POST /v1/ingest`: one observation for one user, either as a
/// released cell (the server derives the emission column from its
/// mechanism) or as an explicit likelihood column.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Target user id.
    pub user: u64,
    /// 0-based observed cell (`{"user": 3, "observed": 7}`).
    pub observed: Option<usize>,
    /// Explicit emission column (`{"user": 3, "column": [0.1, ...]}`).
    pub column: Option<Vec<f64>>,
}

/// Body of `POST /v1/release`: the user's true location, to be
/// perturbed and certified by the enforcing guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseRequest {
    /// Target user id.
    pub user: u64,
    /// 0-based true cell.
    pub true_location: usize,
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_owned())?;
    json::parse(text).map_err(|e| format!("body is not valid JSON: {e}"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(|j| j.as_u64())
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

/// Decodes an ingest body. Exactly one of `observed` / `column` must be
/// present.
pub fn decode_ingest(body: &[u8]) -> Result<IngestRequest, String> {
    let doc = parse_body(body)?;
    let user = field_u64(&doc, "user")?;
    let observed = match doc.get("observed") {
        None => None,
        Some(j) => Some(
            j.as_u64()
                .ok_or_else(|| "field \"observed\" must be a non-negative integer".to_owned())?
                as usize,
        ),
    };
    let column = match doc.get("column") {
        None => None,
        Some(j) => {
            let items = j
                .as_array()
                .ok_or_else(|| "field \"column\" must be an array of numbers".to_owned())?;
            let mut col = Vec::with_capacity(items.len());
            for item in items {
                col.push(
                    item.as_f64()
                        .ok_or_else(|| "field \"column\" must be an array of numbers".to_owned())?,
                );
            }
            Some(col)
        }
    };
    match (&observed, &column) {
        (None, None) => Err("provide exactly one of \"observed\" or \"column\"".to_owned()),
        (Some(_), Some(_)) => {
            Err("provide exactly one of \"observed\" or \"column\", not both".to_owned())
        }
        _ => Ok(IngestRequest {
            user,
            observed,
            column,
        }),
    }
}

/// Decodes a release body.
pub fn decode_release(body: &[u8]) -> Result<ReleaseRequest, String> {
    let doc = parse_body(body)?;
    Ok(ReleaseRequest {
        user: field_u64(&doc, "user")?,
        true_location: field_u64(&doc, "true_location")? as usize,
    })
}

/// Stable metric label of a `/v1` route, path parameters collapsed
/// (`/v1/users/:id/spend`); `None` for any other path.
pub fn route(path: &str) -> Option<&'static str> {
    match path {
        "/v1/ingest" => Some("/v1/ingest"),
        "/v1/release" => Some("/v1/release"),
        "/v1/config" => Some("/v1/config"),
        _ => spend_user(path).map(|_| "/v1/users/:id/spend"),
    }
}

/// The user id of a `/v1/users/<id>/spend` path.
pub fn spend_user(path: &str) -> Option<u64> {
    path.strip_prefix("/v1/users/")?
        .strip_suffix("/spend")?
        .parse()
        .ok()
}

/// `{"error": "..."}` body for non-200 responses.
pub fn encode_error(message: &str) -> String {
    format!("{{\"error\": {}}}", json::quote(message))
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Certified => "certified",
        Verdict::Violated => "violated",
        Verdict::ModelMismatch => "model_mismatch",
    }
}

/// Serializes a [`UserReport`] (the ingest response body).
pub fn encode_report(report: &UserReport) -> String {
    let windows: Vec<String> = report
        .windows
        .iter()
        .map(|w| {
            format!(
                "{{\"template\": {}, \"window_t\": {}, \"loss\": {}, \"posterior\": {}, \
                 \"verdict\": \"{}\"}}",
                w.template,
                w.window_t,
                num(w.loss),
                num(w.posterior),
                verdict_str(w.verdict)
            )
        })
        .collect();
    format!(
        "{{\"user\": {}, \"t\": {}, \"worst_loss\": {}, \"evicted\": {}, \"budget_remaining\": \
         {}, \"exhausted\": {}, \"windows\": [{}]}}",
        report.user.0,
        report.t,
        num(report.worst_loss),
        report.evicted,
        num(report.budget_remaining),
        report.exhausted,
        windows.join(", ")
    )
}

/// Serializes an [`EnforcedRelease`] (the release response body). The
/// decision is flattened: `"outcome"` is `"released"` or `"suppressed"`,
/// with `observed`/`budget` present only when released.
pub fn encode_release(release: &EnforcedRelease) -> String {
    let decision = match release.decision {
        Decision::Released {
            observed,
            budget,
            certified,
        } => format!(
            "\"outcome\": \"released\", \"observed\": {}, \"budget\": {}, \"certified\": \
             {certified}",
            observed.index(),
            num(budget)
        ),
        Decision::Suppressed => "\"outcome\": \"suppressed\", \"certified\": true".to_owned(),
    };
    format!(
        "{{{decision}, \"attempts\": {}, \"report\": {}}}",
        release.attempts,
        encode_report(&release.report)
    )
}

/// Serializes a user's budget position (the spend response body).
pub fn encode_spend<P: TransitionProvider>(session: &Session<P>) -> String {
    let ledger = session.ledger();
    format!(
        "{{\"user\": {}, \"observed\": {}, \"active_windows\": {}, \"budget\": {}, \"spent\": \
         {}, \"remaining\": {}, \"violations\": {}, \"exhausted\": {}}}",
        session.id().0,
        session.observed(),
        session.active_windows(),
        num(ledger.budget()),
        num(ledger.spent()),
        num(ledger.remaining()),
        ledger.violations(),
        ledger.exhausted()
    )
}

/// Serializes the service description (the config response body). The
/// load generator reads `num_cells` and `enforcing` from here before
/// driving traffic.
pub fn encode_config(
    num_cells: usize,
    epsilon: f64,
    budget: f64,
    enforcing: bool,
    templates: usize,
    users: usize,
    draining: bool,
) -> String {
    format!(
        "{{\"num_cells\": {num_cells}, \"epsilon\": {}, \"budget\": {}, \"enforcing\": \
         {enforcing}, \"templates\": {templates}, \"users\": {users}, \"draining\": {draining}}}",
        num(epsilon),
        num(budget)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_event::Presence;
    use priste_geo::{CellId, Region};
    use priste_linalg::Vector;
    use priste_markov::{Homogeneous, MarkovModel};
    use priste_online::{OnlineConfig, SessionManager, UserId};
    use std::sync::Arc;

    #[test]
    fn ingest_decoding_enforces_the_one_of_rule() {
        let req = decode_ingest(b"{\"user\": 3, \"observed\": 7}").unwrap();
        assert_eq!(req.user, 3);
        assert_eq!(req.observed, Some(7));
        assert!(req.column.is_none());

        let req = decode_ingest(b"{\"user\": 1, \"column\": [0.5, 0.25]}").unwrap();
        assert_eq!(req.column.as_deref(), Some(&[0.5, 0.25][..]));

        assert!(decode_ingest(b"{\"user\": 1}").is_err());
        assert!(decode_ingest(b"{\"user\": 1, \"observed\": 0, \"column\": [1.0]}").is_err());
        assert!(decode_ingest(b"{\"observed\": 0}").is_err());
        assert!(decode_ingest(b"not json").is_err());
        assert!(decode_ingest(b"{\"user\": -1, \"observed\": 0}").is_err());
    }

    #[test]
    fn release_decoding_requires_both_fields() {
        let req = decode_release(b"{\"user\": 2, \"true_location\": 4}").unwrap();
        assert_eq!(
            req,
            ReleaseRequest {
                user: 2,
                true_location: 4
            }
        );
        assert!(decode_release(b"{\"user\": 2}").is_err());
    }

    #[test]
    fn report_and_spend_round_trip_through_the_json_parser() {
        let chain = Arc::new(Homogeneous::new(MarkovModel::paper_example()));
        let mut svc = SessionManager::new(chain, OnlineConfig::default()).unwrap();
        let region = Region::from_cells(3, [CellId(0), CellId(1)]).unwrap();
        svc.register_template(Presence::new(region, 1, 4).unwrap().into())
            .unwrap();
        svc.add_user(UserId(9), Vector::uniform(3)).unwrap();
        svc.attach_event(UserId(9), 0).unwrap();
        let report = svc
            .ingest(UserId(9), Vector::from(vec![0.5, 0.3, 0.2]))
            .unwrap();

        let doc = json::parse(&encode_report(&report)).expect("report JSON must parse");
        assert_eq!(doc.get("user").and_then(|j| j.as_u64()), Some(9));
        assert_eq!(doc.get("t").and_then(|j| j.as_u64()), Some(1));
        let windows = doc.get("windows").and_then(|j| j.as_array()).unwrap();
        assert_eq!(windows.len(), report.windows.len());
        if let Some(w) = windows.first() {
            assert!(w.get("verdict").and_then(|j| j.as_str()).is_some());
        }

        let session = svc.session(UserId(9)).unwrap();
        let doc = json::parse(&encode_spend(session)).expect("spend JSON must parse");
        assert_eq!(doc.get("observed").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(
            doc.get("remaining").and_then(|j| j.as_f64()),
            Some(session.ledger().remaining())
        );
    }

    #[test]
    fn error_bodies_escape_quotes() {
        let body = encode_error("bad \"field\"");
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.get("error").and_then(|j| j.as_str()),
            Some("bad \"field\"")
        );
    }
}
