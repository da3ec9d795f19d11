//! Closed-loop NDJSON clients: each sends its next request only after the
//! previous reply arrived, as MPI jobs blocking on a decision do.

use crate::trace;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A decision: its exact bytes, the winner, and the `source` tag.
    Ok {
        decision: String,
        winner: String,
        source: String,
    },
    /// A typed error reply (`unmeasurable`, `bad-request`, ...).
    Error(String),
    /// The connection failed or closed before a reply.
    Conn(String),
}

impl Outcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok { .. })
    }

    /// What a repeat must reproduce: the decision bytes, or the error kind.
    pub fn fingerprint(&self) -> String {
        match self {
            Outcome::Ok { decision, .. } => decision.clone(),
            Outcome::Error(kind) => format!("error:{kind}"),
            Outcome::Conn(e) => format!("conn:{e}"),
        }
    }

    pub fn source(&self) -> &str {
        match self {
            Outcome::Ok { source, .. } => source,
            _ => "",
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Which work item (key id) this was.
    pub key: usize,
    pub latency_us: f64,
    pub outcome: Outcome,
}

/// The raw `"decision":{...}` object of a reply line, byte for byte.
fn decision_bytes(line: &str) -> Option<&str> {
    let start = line.find("\"decision\":")? + "\"decision\":".len();
    let body = &line[start..];
    let (mut depth, mut in_str, mut esc) = (0usize, false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth += 1,
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&body[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Classify one reply line.
pub fn parse_reply(line: &str) -> Outcome {
    let Ok(doc) = simcore::json::parse(line) else {
        return Outcome::Error("unparseable-reply".into());
    };
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |d, k| d.get(k))
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    if field(&["status"]).as_deref() == Some("ok") {
        if let (Some(decision), Some(winner)) =
            (decision_bytes(line), field(&["decision", "winner"]))
        {
            return Outcome::Ok {
                decision: decision.to_string(),
                winner,
                source: field(&["source"]).unwrap_or_default(),
            };
        }
    }
    Outcome::Error(field(&["error", "kind"]).unwrap_or_else(|| "malformed-reply".into()))
}

/// Where each client takes its next request from.
pub enum Work<'a> {
    /// One list shared through a cursor: every item is sent once, by
    /// whichever client is free.
    Shared(&'a [(usize, String)]),
    /// One list per client, sent in order.
    PerClient(&'a [Vec<(usize, String)>]),
}

impl Work<'_> {
    fn clients(&self, shared_clients: usize) -> usize {
        match self {
            Work::Shared(_) => shared_clients,
            Work::PerClient(v) => v.len(),
        }
    }

    /// Items the run attempts (unsent items count as failed).
    pub fn len(&self) -> usize {
        match self {
            Work::Shared(v) => v.len(),
            Work::PerClient(v) => v.iter().map(Vec::len).sum(),
        }
    }
}

/// Drive `work` closed-loop over TCP. Returns the replies received; items
/// never sent (their client's connection died) have no reply. Each request
/// is recorded as a `request` span under `parent`.
pub fn drive(addr: SocketAddr, work: &Work<'_>, shared_clients: usize, parent: u64) -> Vec<Reply> {
    let cursor = AtomicUsize::new(0);
    let clients = work.clients(shared_clients);
    let mut out = Vec::with_capacity(work.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut pos = 0;
                    let mut replies = Vec::new();
                    let mut conn = Conn::open(addr);
                    loop {
                        let item = match work {
                            Work::Shared(v) => v.get(cursor.fetch_add(1, Ordering::Relaxed)),
                            Work::PerClient(v) => v[c].get(pos),
                        };
                        let Some((key, line)) = item else { break };
                        pos += 1;
                        let req = trace::next_req();
                        let t0 = trace::now_ns();
                        let sent = Instant::now();
                        let outcome = match conn.as_mut() {
                            Ok(conn) => conn.call(line),
                            Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
                        };
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        trace::record("request", parent, req, *key as u64, t0, trace::now_ns());
                        let failed = outcome.is_err();
                        replies.push(Reply {
                            key: *key,
                            latency_us,
                            outcome: outcome.unwrap_or_else(|e| Outcome::Conn(e.to_string())),
                        });
                        if failed {
                            break;
                        }
                    }
                    replies
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("client thread panicked"));
        }
    });
    out
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Send one request line and classify the reply.
    pub fn call(&mut self, request: &str) -> io::Result<Outcome> {
        Ok(parse_reply(self.call_raw(request)?))
    }

    /// Send one request line and return the raw reply line.
    pub fn call_raw(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcld::protocol::{render_error, render_ok, Decision, SOURCE_FRESH_SWEEP};
    use simcore::json::Json;

    #[test]
    fn replies_classify_and_keep_decision_bytes() {
        let d = Decision {
            winner: "pairwise{x}".into(),
            score: 0.012_345_678_901_234_5,
            margin: 0.25,
        };
        let line = render_ok(&Json::num(3.0), &d, SOURCE_FRESH_SWEEP);
        match parse_reply(&line) {
            Outcome::Ok {
                decision,
                winner,
                source,
            } => {
                assert_eq!(winner, "pairwise{x}");
                assert_eq!(source, SOURCE_FRESH_SWEEP);
                assert!(line.contains(&decision));
                assert!(decision.starts_with('{') && decision.ends_with('}'));
                assert!(decision.contains("0.012345678901234"));
            }
            other => panic!("not ok: {other:?}"),
        }
        let err = render_error(&Json::num(4.0), "unmeasurable", "no");
        assert_eq!(parse_reply(&err), Outcome::Error("unmeasurable".into()));
        assert_eq!(
            parse_reply("garbage"),
            Outcome::Error("unparseable-reply".into())
        );
    }
}
