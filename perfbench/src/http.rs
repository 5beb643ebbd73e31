//! A minimal keep-alive HTTP/1.1 client for the in-process server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client accepts (the server caps requests at
/// 1 MiB; a compile reply is a few tens of KiB).
const MAX_BODY: usize = 64 << 20;

pub struct Response {
    pub code: u16,
    /// `X-Mha-Served` (compiled / coalesced / cache / warm).
    pub served: String,
    pub body: String,
}

/// One persistent connection, reopened when the server closes it (it does
/// after `keepalive_max_requests`).
pub struct Client {
    addr: SocketAddr,
    name: String,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened, the first included.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, name: &str) -> Client {
        Client {
            addr,
            name: name.to_string(),
            conn: None,
            connects: 0,
        }
    }

    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.send("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.send("POST", path, body)
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| format!("read timeout: {e}"))?;
            self.conn = Some(BufReader::new(s));
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        // One write per request: headers and body in separate segments
        // would stall on Nagle plus delayed ACK.
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nX-Mha-Client: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len(),
            self.name
        );
        conn.get_mut()
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let (resp, close) = read_response(conn)?;
        if close {
            self.conn = None;
        }
        Ok(resp)
    }
}

fn read_response(r: &mut BufReader<TcpStream>) -> Result<(Response, bool), String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| format!("status: {e}"))?;
    let code = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line {:?}", line.trim_end()))?;
    let mut served = String::new();
    let mut len = 0usize;
    let mut close = false;
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| format!("header: {e}"))?;
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = value
                .parse()
                .map_err(|_| format!("bad content-length {value:?}"))?;
        } else if name.eq_ignore_ascii_case("x-mha-served") {
            served = value.to_string();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if len > MAX_BODY {
        return Err(format!("content-length {len} exceeds {MAX_BODY} bytes"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    let body = String::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    Ok((Response { code, served, body }, close))
}
