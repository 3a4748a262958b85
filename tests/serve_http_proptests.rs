//! Property-based hardening of the serve layer's HTTP parser and
//! router: *no input panics, every rejection is a well-formed 4xx*.
//!
//! Two generators drive the parser: raw arbitrary bytes, and a
//! SplitMix64 fault injector that corrupts structurally valid requests
//! (byte flips, truncation, duplication, CRLF tearing) the same way the
//! ingest battery corrupts CSV — errors must be diagnosed, never
//! panicked on, and parse failures must map into the 4xx range.

use hpcfail::exec::splitmix64;
use hpcfail::prelude::*;
use hpcfail::serve::http::percent_decode;
use hpcfail::serve::{parse_request, respond, AppState, TenantSource};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn state() -> &'static AppState {
    static STATE: OnceLock<AppState> = OnceLock::new();
    STATE.get_or_init(|| {
        let trace =
            hpcfail::synth::scenario::system_trace(SystemId::new(20), 42).expect("synth trace");
        let state = AppState::new();
        state
            .registry
            .insert("synth", TenantSource::Static(Arc::new(trace)))
            .expect("tenant");
        state
    })
}

/// String drawn from a fixed alphabet (the vendored proptest has no
/// regex strategies).
fn string_of(alphabet: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..alphabet.len(), len).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|i| alphabet.as_bytes()[i] as char)
            .collect()
    })
}

const PATH_CHARS: &str =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._~!$&'()*+,;=:@%-";
const QUERY_CHARS: &str = "abcdefghijklmnopqrstuvwxyz0123456789=&_%-";
const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// A structurally valid request to corrupt.
fn valid_request(seed: u64) -> Vec<u8> {
    let targets = [
        "/healthz",
        "/v1/traces",
        "/v1/synth/tbf?view=pooled&system=20",
        "/v1/synth/repair?cause=hardware",
        "/v1/synth/rates",
        "/v1/synth/pernode?system=20",
        "/v1/synth/findings",
    ];
    let mut s = seed;
    let target = targets[splitmix64(&mut s) as usize % targets.len()];
    let method = if splitmix64(&mut s) % 4 == 0 {
        "POST"
    } else {
        "GET"
    };
    format!("{method} {target} HTTP/1.1\r\nhost: fuzz\r\naccept: application/json\r\n\r\n")
        .into_bytes()
}

/// SplitMix64-driven corruption: flips, deletions, insertions,
/// duplications, and tears, matching the ingest fault-injector style.
fn corrupt(mut bytes: Vec<u8>, seed: u64, edits: usize) -> Vec<u8> {
    let mut s = seed;
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        let pos = splitmix64(&mut s) as usize % bytes.len();
        match splitmix64(&mut s) % 5 {
            0 => bytes[pos] = (splitmix64(&mut s) % 256) as u8, // flip
            1 => {
                bytes.remove(pos); // delete
            }
            2 => bytes.insert(pos, (splitmix64(&mut s) % 256) as u8), // insert
            3 => bytes.truncate(pos), // tear: the request arrives cut off
            _ => {
                let chunk: Vec<u8> = bytes[pos..].to_vec(); // duplicate tail
                bytes.extend_from_slice(&chunk);
            }
        }
    }
    bytes
}

proptest! {
    /// Arbitrary bytes: the parser is total.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        if let Err(err) = parse_request(&bytes) {
            let status = err.status();
            prop_assert!((400..500).contains(&status), "{err:?} -> {status}");
        }
    }

    /// Corrupted valid requests: parse or reject with a 4xx, never panic;
    /// and whatever parses, the router answers with a well-formed body.
    #[test]
    fn corrupted_requests_parse_or_map_to_4xx(seed in 0u64..u64::MAX, edits in 1usize..24) {
        let bytes = corrupt(valid_request(seed), seed ^ 0x5eed, edits);
        match parse_request(&bytes) {
            Ok(req) => {
                let resp = respond(state(), &req);
                // 503 is the typed `reload_failed` envelope: a corrupted
                // method byte can turn a GET into POST /v1/reload.
                prop_assert!(
                    matches!(resp.status, 200 | 400 | 404 | 405 | 422 | 500 | 503),
                    "unexpected status {}",
                    resp.status
                );
                prop_assert!(resp.body.starts_with('{') && resp.body.ends_with('}'));
            }
            Err(err) => {
                prop_assert!((400..500).contains(&err.status()), "{err:?}");
            }
        }
    }

    /// The router is total over well-formed requests with arbitrary
    /// paths and queries: always a response, errors always enveloped.
    #[test]
    fn router_is_total_over_arbitrary_targets(
        path in string_of(PATH_CHARS, 0..80),
        query in string_of(QUERY_CHARS, 0..40),
        post in prop::bool::ANY,
    ) {
        let method = if post { "POST" } else { "GET" };
        let raw = format!("{method} /{path}?{query} HTTP/1.1\r\n\r\n");
        if let Ok(req) = parse_request(raw.as_bytes()) {
            let resp = respond(state(), &req);
            prop_assert!(matches!(resp.status, 200 | 400 | 404 | 405 | 422 | 500 | 503));
            if resp.status >= 400 {
                prop_assert!(resp.body.starts_with("{\"error\":{"), "{}", resp.body);
            }
        }
    }

    /// Slow-loris at the parser level: every proper prefix of a valid
    /// request (the head terminator not yet arrived) is diagnosed as
    /// `Incomplete` — the read loop keeps waiting for bytes (until its
    /// header deadline fires) instead of misparsing a torn head.
    #[test]
    fn prefixes_of_valid_requests_are_incomplete(seed in 0u64..u64::MAX, cut in 0usize..256) {
        let bytes = valid_request(seed);
        let cut = cut % (bytes.len() - 1);
        match parse_request(&bytes[..cut]) {
            Err(hpcfail::serve::HttpError::Incomplete) => {}
            other => prop_assert!(false, "prefix of {cut} bytes: {other:?}"),
        }
        prop_assert!(parse_request(&bytes).is_ok(), "the whole request must parse");
    }

    /// Percent-decoding is total and correct on round-trips.
    #[test]
    fn percent_encoding_round_trips(raw in string_of(PRINTABLE, 0..64)) {
        let mut encoded = String::new();
        for b in raw.bytes() {
            encoded.push_str(&format!("%{b:02X}"));
        }
        prop_assert_eq!(percent_decode(&encoded, false).unwrap(), raw.clone());
        // And arbitrary percent-ish garbage never panics.
        let _ = percent_decode(&raw, true);
    }
}

#[test]
fn canonical_malformed_inputs_are_diagnosed() {
    use hpcfail::serve::HttpError;
    // Torn head: no terminator.
    assert!(matches!(
        parse_request(b"GET /healthz HTTP/1.1\r\nhost: x"),
        Err(HttpError::Incomplete)
    ));
    // Oversized request line.
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9000));
    assert!(matches!(
        parse_request(huge.as_bytes()),
        Err(HttpError::RequestLineTooLong)
    ));
    // Bad percent-encoding in the target.
    assert!(matches!(
        parse_request(b"GET /v1/%zz/tbf HTTP/1.1\r\n\r\n"),
        Err(HttpError::BadPercentEncoding)
    ));
    // Missing HTTP version.
    assert!(matches!(
        parse_request(b"GET /healthz\r\n\r\n"),
        Err(HttpError::MalformedRequestLine)
    ));
    // Unsupported version marker.
    assert!(matches!(
        parse_request(b"GET / SPDY/9\r\n\r\n"),
        Err(HttpError::UnsupportedVersion)
    ));
    // Header without a colon.
    assert!(matches!(
        parse_request(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
        Err(HttpError::MalformedHeader)
    ));
    // Wrong method on a real route: parses fine, router says 405.
    let req = parse_request(b"DELETE /v1/synth/tbf HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(respond(state(), &req).status, 405);
}
