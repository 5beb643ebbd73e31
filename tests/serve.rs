//! Service-level contract tests for `mha-serve` (ISSUE 8).
//!
//! The server is started in-process ([`driver::Server`] on port 0) and
//! driven over real TCP, so these tests cover the wire format, not just
//! the engine: compile-over-HTTP must equal the library flow byte for
//! byte, identical concurrent requests must coalesce onto one
//! compilation, budget trips must surface as HTTP 408 carrying the
//! stable budget grammar, and a drained-then-restarted server must serve
//! journaled responses warm without recompiling.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use driver::{run_flow_on_text, Directives, Flow, ServeConfig, Server};
use pass_core::report::json_str;
use pass_core::{Budget, BudgetError, BudgetKind};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mha-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Minimal HTTP client: request in, `(status, X-Mha-Served, body)` out.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line '{status_line}'"));
    let mut served = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("x-mha-served") {
                served = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).expect("body");
    (code, served, String::from_utf8(buf).expect("utf-8 body"))
}

fn compile(addr: std::net::SocketAddr, body: &str) -> (u16, String, String) {
    http(addr, "POST", "/v1/compile", body)
}

/// A deterministic raw-MLIR request body from the fuzzer's generator.
fn fuzz_request(seed: u64) -> String {
    let g = fuzzing::generate(seed, &fuzzing::GenConfig::default());
    format!("{{\"mlir\":{},\"name\":\"fuzzk\"}}", json_str(&g.text))
}

#[test]
fn compile_over_http_equals_the_library_flow_byte_for_byte() {
    let dir = temp_dir("http-vs-lib");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    let g = fuzzing::generate(11, &fuzzing::GenConfig::default());
    let (code, served, body) = compile(addr, &fuzz_request(11));
    assert_eq!(code, 200, "body: {body}");
    assert_eq!(served, "compiled");

    // The same source through the library entry point the server wraps.
    let art = run_flow_on_text(
        "fuzzk",
        &g.text,
        &Directives::pipelined(1),
        Flow::Adaptor,
        &Budget::unlimited(),
    )
    .expect("library flow succeeds");
    let expect_text = llvm_lite::printer::print_module(&art.module);

    let v = pass_core::json::parse(&body).expect("response is JSON");
    let outcome = v.get("outcome").expect("outcome object");
    assert_eq!(outcome.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(
        outcome.get("module_text").unwrap().as_str(),
        Some(expect_text.as_str()),
        "HTTP module text must be byte-identical to run_flow_on_text"
    );
    // The response's pipeline report covers the same stages the library
    // flow ran, stage-prefixed, plus the serve-side csynth stage.
    let report = outcome.get("report").expect("report object");
    let passes = report.get("passes").unwrap().as_arr().unwrap();
    let names: Vec<String> = passes
        .iter()
        .filter_map(|p| p.get("pass").and_then(|x| x.as_str()).map(str::to_string))
        .collect();
    for stage in &art.report.passes {
        assert!(
            names.iter().any(|n| n == &format!("flow/{}", stage.pass)),
            "stage flow/{} missing from HTTP report {names:?}",
            stage.pass
        );
    }
    assert!(names.iter().any(|n| n == "csynth"), "{names:?}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_concurrent_requests_coalesce_onto_one_compilation() {
    let dir = temp_dir("coalesce");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    let body = fuzz_request(23);
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| compile(addr, &body));
        let tb = scope.spawn(|| compile(addr, &body));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(a.0, 200, "body: {}", a.2);
    assert_eq!(b.0, 200, "body: {}", b.2);
    // Responses are byte-identical however they were served.
    assert_eq!(a.2, b.2);
    // Exactly one request compiled; the other coalesced onto it (or, if
    // it lost the race entirely, hit the response cache).
    let markers = {
        let mut m = [a.1.as_str(), b.1.as_str()];
        m.sort_unstable();
        m
    };
    assert_eq!(markers.iter().filter(|m| **m == "compiled").count(), 1);
    assert!(
        markers
            .iter()
            .all(|m| ["compiled", "coalesced", "cache"].contains(m)),
        "unexpected served markers {markers:?}"
    );

    // The status endpoint agrees: one compile, one shared result.
    let (code, _, status) = http(addr, "GET", "/v1/status", "");
    assert_eq!(code, 200);
    let v = pass_core::json::parse(&status).unwrap();
    let requests = v.get("requests").unwrap();
    assert_eq!(requests.get("compiled").unwrap().as_u64(), Some(1));
    assert_eq!(requests.get("compile_total").unwrap().as_u64(), Some(2));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_exceeded_request_returns_408_with_the_stable_grammar() {
    let dir = temp_dir("budget-408");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    // Cold cache + zero deadline: the first stage boundary must trip.
    let (code, _, body) = compile(addr, "{\"kernel\":\"gemm\",\"deadline_ms\":0}");
    assert_eq!(code, 408, "body: {body}");
    let v = pass_core::json::parse(&body).unwrap();
    let outcome = v.get("outcome").unwrap();
    assert_eq!(outcome.get("status").unwrap().as_str(), Some("failed"));
    assert!(outcome
        .get("class")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("budget-deadline"));
    // The rendered field carries the stable budget grammar, recoverable
    // structurally by clients.
    let rendered = v.get("rendered").unwrap().as_str().unwrap();
    let trip = BudgetError::from_rendered(rendered)
        .unwrap_or_else(|| panic!("'{rendered}' does not parse as the budget grammar"));
    assert_eq!(trip.kind, BudgetKind::Deadline);

    // Budget trips are not deterministic verdicts: they must not be
    // cached, so a retry without the deadline succeeds.
    let (code, served, body) = compile(addr, "{\"kernel\":\"gemm\"}");
    assert_eq!(code, 200, "body: {body}");
    assert_eq!(served, "compiled");

    // Fuel exhaustion maps to 429, same grammar.
    let (code, _, body) = compile(addr, "{\"kernel\":\"two_mm\",\"fuel\":1}");
    assert_eq!(code, 429, "body: {body}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_then_restart_serves_the_journaled_result_warm() {
    let dir = temp_dir("warm-restart");
    let body = fuzz_request(42);

    let server = Server::start(config(&dir)).expect("first server starts");
    let addr = server.addr();
    let (code, served, first) = compile(addr, &body);
    assert_eq!(code, 200, "body: {first}");
    assert_eq!(served, "compiled");
    // Cooperative drain: stop() joins the pool after in-flight work (and
    // its journal writes) complete.
    server.stop();

    let server = Server::start(config(&dir)).expect("restarted server starts");
    let addr = server.addr();
    let (code, served, second) = compile(addr, &body);
    assert_eq!(code, 200, "body: {second}");
    assert_eq!(
        served, "warm",
        "restarted server must replay the journaled response"
    );
    assert_eq!(first, second, "replayed response must be byte-identical");

    // The status endpoint records the warm hit and no compilation.
    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let requests = v.get("requests").unwrap();
    assert_eq!(requests.get("compiled").unwrap().as_u64(), Some(0));
    assert_eq!(requests.get("warm_hits").unwrap().as_u64(), Some(1));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Resilience-layer tests (ISSUE 9)
// ---------------------------------------------------------------------------

use driver::{BreakerConfig, ChaosConfig, FairQueueConfig, STREAM_MEDIA_TYPE};

/// Send one request on an already-open connection and read one response.
/// Returns `(status, X-Mha-Served, body, all headers)`.
fn request_on(
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
    keep: bool,
) -> (u16, String, String, Vec<(String, String)>) {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n{extra_headers}Connection: {}\r\n\r\n{body}",
        body.len(),
        if keep { "keep-alive" } else { "close" },
    );
    reader.get_mut().write_all(req.as_bytes()).expect("send");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad status line '{status_line}'"));
    let mut served = String::new();
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            if name.eq_ignore_ascii_case("x-mha-served") {
                served = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).expect("body");
    (
        code,
        served,
        String::from_utf8(buf).expect("utf-8"),
        headers,
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

#[test]
fn keep_alive_connection_serves_multiple_requests_on_one_socket() {
    let dir = temp_dir("keep-alive");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);

    let body = fuzz_request(71);
    let mut last = String::new();
    for i in 0..3 {
        let (code, served, resp, headers) =
            request_on(&mut reader, "POST", "/v1/compile", &body, "", true);
        assert_eq!(code, 200, "request {i}: {resp}");
        if i == 0 {
            assert_eq!(served, "compiled");
        } else {
            assert_eq!(served, "cache", "request {i} should hit the cache");
            assert_eq!(resp, last, "cache replay must be byte-identical");
        }
        last = resp;
        // The server advertises keep-alive back with its policy.
        let ka = header(&headers, "keep-alive").expect("keep-alive header");
        assert!(ka.contains("timeout="), "keep-alive header '{ka}'");
        assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    }

    // All three requests rode one socket: the server counts two reuses.
    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let res = v.get("resilience").expect("resilience object");
    assert_eq!(res.get("keepalive_reuses").unwrap().as_u64(), Some(2));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read one chunked-transfer response body and return its decoded lines.
fn read_chunked_lines(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut decoded = String::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).expect("chunk size");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size '{size_line}'"));
        if size == 0 {
            let mut crlf = String::new();
            reader.read_line(&mut crlf).expect("trailer");
            break;
        }
        let mut chunk = vec![0u8; size + 2]; // payload + CRLF
        reader.read_exact(&mut chunk).expect("chunk payload");
        decoded.push_str(&String::from_utf8_lossy(&chunk[..size]));
    }
    decoded.lines().map(str::to_string).collect()
}

#[test]
fn streaming_accept_yields_stage_events_and_the_same_response_body() {
    let dir = temp_dir("stream");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();
    let body = fuzz_request(83);

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let req = format!(
        "POST /v1/compile HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nAccept: {STREAM_MEDIA_TYPE}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    reader.get_mut().write_all(req.as_bytes()).expect("send");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status");
    assert!(
        status_line.contains("200"),
        "stream transport is always 200, got '{status_line}'"
    );
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if line.to_ascii_lowercase().contains("transfer-encoding")
            && line.to_ascii_lowercase().contains("chunked")
        {
            chunked = true;
        }
    }
    assert!(chunked, "stream responses use chunked transfer");
    let events = read_chunked_lines(&mut reader);
    assert!(events.len() >= 3, "expected start/stage/done: {events:?}");
    let first = pass_core::json::parse(&events[0]).expect("start event JSON");
    assert_eq!(first.get("event").unwrap().as_str(), Some("start"));
    assert!(
        events[1..events.len() - 1].iter().any(|e| {
            pass_core::json::parse(e)
                .ok()
                .and_then(|v| v.get("event").map(|x| x.as_str() == Some("stage")))
                .unwrap_or(false)
        }),
        "no stage event in {events:?}"
    );
    let done = pass_core::json::parse(events.last().unwrap()).expect("done event JSON");
    assert_eq!(done.get("event").unwrap().as_str(), Some("done"));
    assert_eq!(done.get("code").unwrap().as_u64(), Some(200));

    // The embedded body equals what a plain (cache-served) request gets.
    let (code, served, plain) = compile(addr, &body);
    assert_eq!(code, 200);
    assert_eq!(served, "cache");
    let plain_v = pass_core::json::parse(&plain).unwrap();
    assert_eq!(
        done.get("body").unwrap().get("digest").unwrap().as_str(),
        plain_v.get("digest").unwrap().as_str(),
        "streamed body must describe the same compilation"
    );

    // The streamed counter moved.
    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let res = v.get("resilience").unwrap();
    assert!(res.get("streamed").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_429_and_retry_after_but_never_sheds_warm_hits() {
    let dir = temp_dir("shed");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.queue = FairQueueConfig {
        max_depth: 2,
        ..FairQueueConfig::default()
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();

    // Warm one response up front: it must survive any pressure below.
    let warm_body = fuzz_request(90);
    let (code, _, _) = compile(addr, &warm_body);
    assert_eq!(code, 200);

    let mut sheds = 0;
    for round in 0..3 {
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for i in 0..10u64 {
                let body = fuzz_request(1000 + round * 100 + i);
                handles.push(scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut reader = BufReader::new(stream);
                    request_on(&mut reader, "POST", "/v1/compile", &body, "", false)
                }));
            }
            // The warm hit races the flood and must still answer 200.
            let warm = scope.spawn(|| compile(addr, &warm_body));
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let (wc, ws, _) = warm.join().unwrap();
            assert_eq!(wc, 200, "warm hit shed under pressure");
            assert!(["cache", "warm"].contains(&ws.as_str()), "served {ws}");
            results
        });
        for (code, _, body, headers) in results {
            if code == 429 && body.contains("shed") {
                assert!(
                    header(&headers, "retry-after").is_some(),
                    "shed 429 without Retry-After"
                );
                sheds += 1;
            } else {
                assert_eq!(code, 200, "body: {body}");
            }
        }
        if sheds > 0 {
            break;
        }
    }
    assert!(sheds > 0, "depth-2 queue never shed a 10-request flood");

    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let shed = v.get("resilience").unwrap().get("shed").unwrap();
    assert!(shed.get("raw").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_trips_on_transient_chaos_and_degrades_to_the_cpp_fallback() {
    let dir = temp_dir("breaker");
    let mut cfg = config(&dir);
    // Every raw compile rolls the serve/compile chaos site; the menu is
    // seed-hashed per digest, so some seeds draw the transient fault.
    cfg.chaos = Some(ChaosConfig {
        seed: 2026,
        rate: 1.0,
    });
    cfg.breaker = BreakerConfig {
        window: 8,
        min_samples: 1,
        trip_ratio: 0.3,
        cooldown_ms: 120_000, // stays open for the whole test
    };
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();

    // At chaos rate 1.0 the serve/response SocketReset site can also
    // fire, dropping the connection before the response: resend until the
    // per-digest attempt counter clears it (that recovery is itself part
    // of the contract under test).
    let post_with_retry = |body: &str| -> (u16, String, String, Vec<(String, String)>) {
        for _ in 0..10 {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut reader = BufReader::new(stream);
            let req = format!(
                "POST /v1/compile HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            reader.get_mut().write_all(req.as_bytes()).expect("send");
            let mut status_line = String::new();
            if reader.read_line(&mut status_line).is_err() || status_line.is_empty() {
                continue; // chaos reset the socket; resend
            }
            let code: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .unwrap_or_else(|| panic!("bad status line '{status_line}'"));
            let mut served = String::new();
            let mut content_length = 0usize;
            let mut headers = Vec::new();
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("header");
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
                    if name.eq_ignore_ascii_case("x-mha-served") {
                        served = value.trim().to_string();
                    } else if name.eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().unwrap();
                    }
                }
            }
            let mut buf = vec![0u8; content_length];
            if reader.read_exact(&mut buf).is_err() {
                continue; // reset mid-body; resend
            }
            return (
                code,
                served,
                String::from_utf8(buf).expect("utf-8"),
                headers,
            );
        }
        panic!("10 resends all lost to socket resets");
    };

    // Seed-search until chaos draws the transient serve/compile fault and
    // trips the breaker (each digest has ~1/2 odds; 40 tries is
    // vanishingly safe). The tripping 503 itself is eaten by the
    // serve/response reset at rate 1.0 — the trip is observed in status.
    let mut tripped = false;
    for seed in 300..340 {
        let (code, _, body, _) = post_with_retry(&fuzz_request(seed));
        assert!(code == 200 || code == 503, "unexpected {code}: {body}");
        let (_, _, status) = http(addr, "GET", "/v1/status", "");
        let sv = pass_core::json::parse(&status).unwrap();
        let breaker = sv.get("resilience").unwrap().get("breaker").unwrap();
        if breaker.get("state").unwrap().as_str() == Some("open") {
            tripped = true;
            break;
        }
    }
    assert!(tripped, "chaos rate 1.0 never drew a transient fault");

    // The breaker is now open: the next adaptor request runs the
    // deterministic C++ fallback (chaos disabled on the safety net) and
    // says so in the body.
    let (code, served, body, _) = post_with_retry(&fuzz_request(999));
    assert_eq!(code, 200, "degraded request failed: {body}");
    assert_eq!(served, "compiled");
    assert!(
        body.contains("\"breaker\":\"open\""),
        "degraded body lacks breaker marker: {body}"
    );
    let v = pass_core::json::parse(&body).unwrap();
    assert_eq!(v.get("flow").unwrap().as_str(), Some("hls-c++"));
    assert_eq!(
        v.get("outcome").unwrap().get("status").unwrap().as_str(),
        Some("degraded")
    );

    // A request already on the C++ flow has nothing to degrade to: the
    // open breaker rejects it with a deterministic 503 + Retry-After.
    let g = fuzzing::generate(1234, &fuzzing::GenConfig::default());
    let cpp_body = format!(
        "{{\"mlir\":{},\"name\":\"fuzzk\",\"flow\":\"cpp\"}}",
        json_str(&g.text)
    );
    let (code, _, body, headers) = post_with_retry(&cpp_body);
    assert_eq!(code, 503, "breaker-open cpp request: {body}");
    assert!(
        header(&headers, "retry-after").is_some(),
        "breaker 503 without Retry-After"
    );
    assert!(body.contains("circuit breaker open"), "body: {body}");

    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let sv = pass_core::json::parse(&status).unwrap();
    let breaker = sv.get("resilience").unwrap().get("breaker").unwrap();
    assert_eq!(breaker.get("state").unwrap().as_str(), Some("open"));
    assert!(breaker.get("trips").unwrap().as_u64().unwrap() >= 1);
    assert!(breaker.get("degraded").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_heads_and_stalled_bodies_are_cut_off_with_408() {
    let dir = temp_dir("loris");
    let mut cfg = config(&dir);
    cfg.header_deadline_ms = 150;
    cfg.read_timeout_ms = 300;
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr();

    // A header that never completes is answered 408 at the deadline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/compile HTT")
        .expect("partial head");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status");
    assert!(
        status_line.contains("408"),
        "slow-loris head got '{status_line}'"
    );

    // A complete head whose body stalls is answered 408 at the body
    // deadline (the --read-timeout-ms satellite).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/compile HTTP/1.1\r\nHost: test\r\nContent-Length: 50\r\n\r\n{\"kern")
        .expect("head + stalled body");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("read status");
    assert!(
        status_line.contains("408"),
        "stalled body got '{status_line}'"
    );

    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let res = v.get("resilience").unwrap();
    assert!(res.get("header_timeouts").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_completes_even_with_an_idle_keepalive_connection_parked() {
    let dir = temp_dir("drain-keepalive");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    // Park an idle keep-alive connection on the server.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let (code, _, _, _) = request_on(
        &mut reader,
        "POST",
        "/v1/compile",
        &fuzz_request(77),
        "",
        true,
    );
    assert_eq!(code, 200);

    // Shutdown must drain promptly despite the parked connection — the
    // non-blocking listener + closed queues replace the old loopback
    // "nudge" that could hang. A watchdog enforces promptness.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let (code, _, body) = http(addr, "POST", "/v1/shutdown", "");
        assert_eq!(code, 200, "shutdown: {body}");
        server.stop();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown hung with an idle keep-alive connection");
    handle.join().unwrap();
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Process-isolation tests (ISSUE 10)
// ---------------------------------------------------------------------------

use driver::{ChaosEngine, ChaosFault, CRASH_MENU};

/// The tentpole acceptance pin: with `--isolate`, a chaos-injected worker
/// death during an in-flight compile answers a typed `crash` 500 while the
/// server keeps serving subsequent requests warm from the same process.
#[test]
fn worker_crash_mid_compile_is_a_typed_500_and_the_server_stays_warm() {
    let dir = temp_dir("warden-crash");
    // Pick a chaos seed where the bomb request draws a worker kill at the
    // in-worker `warden` site while the polite request draws nothing.
    let rate = 0.5;
    let seed = (0u64..100_000)
        .find(|&s| {
            let eng = ChaosEngine::new(ChaosConfig { seed: s, rate });
            matches!(
                eng.roll("crashme", "warden", 0, &CRASH_MENU),
                Some(ChaosFault::WorkerKill)
            ) && eng.roll("fuzzk", "warden", 0, &CRASH_MENU).is_none()
        })
        .expect("a crash-selective chaos seed exists");

    let server = Server::start(ServeConfig {
        isolate: true,
        warden_pool: 2,
        warden_chaos: Some(ChaosConfig { seed, rate }),
        ..config(&dir)
    })
    .expect("server starts");
    let addr = server.addr();

    // A polite request compiles inside a worker process.
    let (code, served, body) = compile(addr, &fuzz_request(11));
    assert_eq!(code, 200, "body: {body}");
    assert_eq!(served, "compiled");

    // The bomb's worker is killed mid-compile: typed 500, class `crash`.
    let g = fuzzing::generate(11, &fuzzing::GenConfig::default());
    let bomb = format!("{{\"mlir\":{},\"name\":\"crashme\"}}", json_str(&g.text));
    let (code, _, body) = compile(addr, &bomb);
    assert_eq!(code, 500, "body: {body}");
    let v = pass_core::json::parse(&body).expect("error body is JSON");
    let outcome = v.get("outcome").expect("outcome object");
    assert_eq!(outcome.get("status").unwrap().as_str(), Some("failed"));
    assert_eq!(outcome.get("class").unwrap().as_str(), Some("crash"));

    // The server itself survived: health stays green and the earlier
    // response still answers from the in-memory cache — the crash neither
    // killed the process nor poisoned the cache.
    let (code, _, _) = http(addr, "GET", "/v1/healthz", "");
    assert_eq!(code, 200);
    let (code, served, _) = compile(addr, &fuzz_request(11));
    assert_eq!(code, 200);
    assert_eq!(served, "cache");

    // Status carries the crash count and live worker-pool counters.
    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let sv = pass_core::json::parse(&status).unwrap();
    let resilience = sv.get("resilience").expect("resilience object");
    assert_eq!(resilience.get("crashes").unwrap().as_u64(), Some(1));
    let warden = sv.get("warden").expect("warden object in status");
    assert!(warden.get("executed").unwrap().as_u64().unwrap() >= 2);
    assert!(warden.get("crashes").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The response cache is bounded: with `--max-cached-responses 1` the
/// second distinct compile evicts the first, and the status counters
/// expose hits, misses, and evictions.
#[test]
fn bounded_response_cache_evicts_lru_and_reports_counters() {
    let dir = temp_dir("cache-bound");
    let server = Server::start(ServeConfig {
        max_cached_responses: 1,
        ..config(&dir)
    })
    .expect("server starts");
    let addr = server.addr();

    let (code, _, _) = compile(addr, &fuzz_request(21));
    assert_eq!(code, 200);
    let (_, served, _) = compile(addr, &fuzz_request(21));
    assert_eq!(served, "cache", "within the bound the repeat hits");

    // A second distinct response evicts the first (cap is 1)...
    let (code, _, _) = compile(addr, &fuzz_request(22));
    assert_eq!(code, 200);
    // ...so the first request recompiles (journal replay is off-path for
    // a live server; the in-memory response cache answered before).
    let (_, served, _) = compile(addr, &fuzz_request(21));
    assert_ne!(served, "cache", "evicted entry must not answer from cache");

    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let rc = v.get("response_cache").expect("response_cache in status");
    assert_eq!(rc.get("cap").unwrap().as_u64(), Some(1));
    assert_eq!(rc.get("size").unwrap().as_u64(), Some(1));
    assert!(rc.get("hits").unwrap().as_u64().unwrap() >= 1);
    assert!(rc.get("evictions").unwrap().as_u64().unwrap() >= 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A raw body's report carries the engine's stages once: `flow/*`
/// sub-stages and `csynth`, never a bare `flow` record on top of them,
/// which would count flow time twice in `total_us` and the status
/// histogram. A partition directive survives the print/parse boundary,
/// so the body is linted too.
#[test]
fn raw_report_has_no_bare_flow_record_and_partitioned_bodies_lint() {
    let dir = temp_dir("raw-report");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    for body in [
        fuzz_request(11),
        fuzz_request(11).replacen('{', "{\"partition\":4,", 1),
    ] {
        let (code, _, resp) = compile(addr, &body);
        assert_eq!(code, 200, "body: {resp}");
        let v = pass_core::json::parse(&resp).unwrap();
        let outcome = v.get("outcome").unwrap();
        let report = outcome.get("report").unwrap();
        let names: Vec<&str> = report
            .get("passes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|p| p.get("pass").and_then(|x| x.as_str()))
            .collect();
        assert!(!names.contains(&"flow"), "bare flow record in {names:?}");
        assert!(names.iter().any(|n| n.starts_with("flow/")), "{names:?}");
        assert!(!names.contains(&"cosim"), "raw bodies never co-simulate");
        assert!(
            v.get("lint").unwrap().as_arr().is_some(),
            "lint must run: {resp}"
        );
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Directive values above `u32::MAX` are a 400 naming the field, not a
/// wrapped value answered from another request's cache entry.
#[test]
fn out_of_range_directives_are_rejected_not_aliased() {
    let dir = temp_dir("directive-range");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    let (code, _, body) = compile(addr, "{\"kernel\":\"fir\",\"unroll\":2}");
    assert_eq!(code, 200, "body: {body}");
    for field in ["ii", "unroll", "partition"] {
        let req = format!("{{\"kernel\":\"fir\",\"{field}\":4294967298}}");
        let (code, served, body) = compile(addr, &req);
        assert_eq!(code, 400, "{field}: {served} {body}");
        assert!(body.contains(&format!("'{field}'")), "{field}: {body}");
    }
    // The largest u32 is still a valid directive value.
    let (code, _, body) = compile(addr, "{\"kernel\":\"fir\",\"ii\":4294967295}");
    assert_ne!(code, 400, "body: {body}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every response leaves the server through one delivery path, which
/// counts its status. One response of each deterministic kind, then
/// `/v1/status` must report exactly the client's own tally: `codes` per
/// status, and `compile_total` equal to the compile responses (those
/// carrying `X-Mha-Served`).
#[test]
fn every_response_is_counted_exactly_once() {
    let dir = temp_dir("count-once");
    let server = Server::start(ServeConfig {
        max_body: 1024,
        ..config(&dir)
    })
    .expect("server starts");
    let addr = server.addr();

    let mut codes = std::collections::BTreeMap::<u16, u64>::new();
    let mut compile_responses = 0u64;
    let mut tally = |(code, served, body): (u16, String, String), want: u16| {
        assert_eq!(code, want, "served '{served}', body: {body}");
        *codes.entry(code).or_insert(0) += 1;
        if !served.is_empty() {
            compile_responses += 1;
        }
        served
    };
    assert_eq!(
        tally(compile(addr, "{\"kernel\":\"fir\"}"), 200),
        "compiled"
    );
    assert_eq!(tally(compile(addr, "{\"kernel\":\"fir\"}"), 200), "cache");
    tally(http(addr, "GET", "/v1/status", ""), 200);
    tally(http(addr, "GET", "/v1/healthz", ""), 200);
    assert_eq!(tally(compile(addr, "{\"kernel\":"), 400), "");
    tally(http(addr, "GET", "/v1/no-such", ""), 404);
    tally(http(addr, "PUT", "/v1/compile", ""), 405);
    let unparsable = "{\"mlir\":\"not an mlir module\",\"name\":\"bad\"}";
    assert_eq!(tally(compile(addr, unparsable), 422), "compiled");
    assert_eq!(
        tally(compile(addr, "{\"kernel\":\"two_mm\",\"fuel\":1}"), 429),
        "compiled"
    );
    assert_eq!(
        tally(
            compile(addr, "{\"kernel\":\"gemm\",\"deadline_ms\":0}"),
            408
        ),
        "compiled"
    );
    // A head announcing a body over `max_body` is refused before the body
    // is read, so the head alone draws the 413.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(b"POST /v1/compile HTTP/1.1\r\nHost: test\r\nContent-Length: 4096\r\n\r\n")
        .expect("send head");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    tally((code, String::new(), status_line), 413);

    let (_, _, status) = http(addr, "GET", "/v1/status", "");
    let v = pass_core::json::parse(&status).unwrap();
    let requests = v.get("requests").unwrap();
    let counted: std::collections::BTreeMap<u16, u64> = requests
        .get("codes")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, n)| (k.parse().unwrap(), n.as_u64().unwrap()))
        .collect();
    assert_eq!(counted, codes, "status codes vs the client's tally");
    assert_eq!(
        requests.get("compile_total").unwrap().as_u64(),
        Some(compile_responses),
        "{status}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// MLIR that used to panic the compile, an `affine.for` with step 0 and a
/// memref with a zero extent, is a located 422, and so is every resend: a
/// 500 is never cached, so each resend would have panicked again.
#[test]
fn bad_mlir_is_a_422_not_a_panic() {
    let dir = temp_dir("bad-mlir");
    let server = Server::start(config(&dir)).expect("server starts");
    let addr = server.addr();

    let step0 = "func.func @k(%A: memref<4xf32>) attributes {hls.top} {\n  affine.for %i = 0 to 4 step 0 {\n    %c = arith.constant 1.0 : f32\n    affine.store %c, %A[%i] : memref<4xf32>\n  }\n  func.return\n}\n";
    let zero_extent = "func.func @k(%A: memref<4x0xf32>) attributes {hls.top} {\n  affine.for %i = 0 to 4 {\n    %c = arith.constant 1.0 : f32\n    affine.store %c, %A[%i, 0] : memref<4x0xf32>\n  }\n  func.return\n}\n";
    for (mlir, want) in [
        (
            step0,
            "parse error at line 2: affine.for step must be positive, got 0",
        ),
        (zero_extent, "@k: memref<4x0xf32> has a zero extent"),
    ] {
        let body = format!("{{\"mlir\":{},\"name\":\"bad\"}}", json_str(mlir));
        for _ in 0..2 {
            let (code, _, resp) = compile(addr, &body);
            assert_eq!(code, 422, "body: {resp}");
            assert!(resp.contains(want), "want '{want}' in {resp}");
        }
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
