//! Captured flow records.

use panoptes_http::json::{self, Value};
use panoptes_http::method::Method;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::request::HttpVersion;
use panoptes_http::Atom;

/// How the taint-splitting addon classified a flow (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowClass {
    /// Tainted: generated in the web engine by the website.
    Engine,
    /// Untainted: generated natively by the browser app.
    Native,
    /// The app refused our forged certificate (pinning); only connection
    /// metadata was observable.
    PinnedOpaque,
    /// A guard addon refused to forward the request (countermeasure
    /// enforcement); the destination never received it.
    Blocked,
}

impl FlowClass {
    /// Stable label for persistence.
    pub fn as_str(self) -> &'static str {
        match self {
            FlowClass::Engine => "engine",
            FlowClass::Native => "native",
            FlowClass::PinnedOpaque => "pinned",
            FlowClass::Blocked => "blocked",
        }
    }

    /// Parses the label produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<FlowClass> {
        Some(match s {
            "engine" => FlowClass::Engine,
            "native" => FlowClass::Native,
            "pinned" => FlowClass::PinnedOpaque,
            "blocked" => FlowClass::Blocked,
            _ => return None,
        })
    }
}

/// One captured HTTP exchange (or opaque connection).
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Sequence number within the capture.
    pub id: u64,
    /// Virtual capture time in microseconds since campaign start.
    pub time_us: u64,
    /// Kernel UID of the sending process.
    pub uid: u32,
    /// Package name of the sending app (interned — shared across the
    /// thousands of flows a campaign captures per app).
    pub package: Atom,
    /// Destination hostname (SNI), interned.
    pub host: Atom,
    /// Destination address.
    pub dst_ip: IpAddr,
    /// Destination port.
    pub dst_port: u16,
    /// Request method.
    pub method: Method,
    /// Full serialized request URL (after taint-header removal).
    pub url: String,
    /// Request headers as `name: value` lines (wire order, post-addon).
    /// Both halves interned — recording a flow's headers is one `Vec`
    /// plus reference-count bumps.
    pub request_headers: Vec<(Atom, Atom)>,
    /// Request body (lossy UTF-8; synthetic bodies are always text).
    pub request_body: String,
    /// Response status code (0 for opaque/pinned flows).
    pub status: u16,
    /// Request wire size in bytes.
    pub bytes_out: u64,
    /// Response wire size in bytes.
    pub bytes_in: u64,
    /// Protocol version.
    pub version: HttpVersion,
    /// The addon chain's classification.
    pub class: FlowClass,
}

impl Flow {
    /// Serializes to a JSON value (one JSONL line in the store).
    ///
    /// JSON numbers are IEEE-754 doubles, so `id`/`time_us` round-trip
    /// exactly only below 2^53 — far beyond any real capture (ids are
    /// per-campaign sequence numbers; 2^53 µs is ~285 years).
    pub fn to_json(&self) -> Value {
        debug_assert!(self.id < (1 << 53) && self.time_us < (1 << 53));
        Value::object(vec![
            ("id", Value::from(self.id)),
            ("time_us", Value::from(self.time_us)),
            ("uid", Value::from(self.uid)),
            ("package", Value::str(&self.package)),
            ("host", Value::str(&self.host)),
            ("dst_ip", Value::str(self.dst_ip.to_string())),
            ("dst_port", Value::from(self.dst_port as u32)),
            ("method", Value::str(self.method.as_str())),
            ("url", Value::str(&self.url)),
            (
                "request_headers",
                Value::Array(
                    self.request_headers
                        .iter()
                        .map(|(n, v)| Value::Array(vec![Value::str(n), Value::str(v)]))
                        .collect(),
                ),
            ),
            ("request_body", Value::str(&self.request_body)),
            ("status", Value::from(self.status as u32)),
            ("bytes_out", Value::from(self.bytes_out)),
            ("bytes_in", Value::from(self.bytes_in)),
            ("version", Value::str(self.version.as_str())),
            ("class", Value::str(self.class.as_str())),
        ])
    }

    /// Parses a JSON value produced by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Option<Flow> {
        let headers = v
            .get("request_headers")?
            .as_array()?
            .iter()
            .map(|pair| {
                let pair = pair.as_array()?;
                Some((
                    Atom::intern(pair.first()?.as_str()?),
                    Atom::intern(pair.get(1)?.as_str()?),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Flow {
            id: v.get("id")?.as_i64()? as u64,
            time_us: v.get("time_us")?.as_i64()? as u64,
            uid: v.get("uid")?.as_i64()? as u32,
            package: Atom::intern(v.get("package")?.as_str()?),
            host: Atom::intern(v.get("host")?.as_str()?),
            dst_ip: IpAddr::parse(v.get("dst_ip")?.as_str()?)?,
            dst_port: v.get("dst_port")?.as_i64()? as u16,
            method: Method::parse(v.get("method")?.as_str()?)?,
            url: v.get("url")?.as_str()?.to_string(),
            request_headers: headers,
            request_body: v.get("request_body")?.as_str()?.to_string(),
            status: v.get("status")?.as_i64()? as u16,
            bytes_out: v.get("bytes_out")?.as_i64()? as u64,
            bytes_in: v.get("bytes_in")?.as_i64()? as u64,
            version: HttpVersion::parse(v.get("version")?.as_str()?)?,
            class: FlowClass::parse(v.get("class")?.as_str()?)?,
        })
    }

    /// One compact JSONL line.
    pub fn to_jsonl(&self) -> String {
        json::to_string(&self.to_json())
    }

    /// Upper-bound estimate of this flow's [`Self::to_jsonl`] length
    /// (including a trailing newline), used to pre-reserve export
    /// buffers. Must never undershoot: string fields budget an extra
    /// eighth for escape expansion, and the fixed part covers key
    /// names, punctuation and the widest numeric renderings.
    pub fn jsonl_len_estimate(&self) -> usize {
        fn escaped(s: &str) -> usize {
            // JSON escaping grows a string by at most 6x ("\u00XX"),
            // but synthetic captures are ASCII-dominated; len/8 + 2
            // slack covers the realistic quote/backslash density while
            // the +2 absorbs tiny strings.
            s.len() + s.len() / 8 + 2
        }
        let strings = escaped(&self.package)
            + escaped(&self.host)
            + escaped(&self.url)
            + escaped(&self.request_body)
            + self
                .request_headers
                .iter()
                .map(|(n, v)| escaped(n) + escaped(v) + 8)
                .sum::<usize>();
        // Keys + quotes + commas + braces + six u64/u32 fields at up to
        // 20 digits each + a dotted-quad address + method/version/class
        // labels + newline.
        340 + strings
    }

    /// A header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.request_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Flow {
        Flow {
            id: 7,
            time_us: 1_500_000,
            uid: 10050,
            package: "ru.yandex.browser".into(),
            host: "sba.yandex.net".into(),
            dst_ip: IpAddr::new(77, 88, 0, 11),
            dst_port: 443,
            method: Method::Post,
            url: "https://sba.yandex.net/report?url=aHR0cHM6Ly9leGFtcGxlLmNvbS8".into(),
            request_headers: vec![("user-agent".into(), "YaBrowser".into())],
            request_body: "{\"t\":1}".into(),
            status: 204,
            bytes_out: 420,
            bytes_in: 90,
            version: HttpVersion::H2,
            class: FlowClass::Native,
        }
    }

    #[test]
    fn json_roundtrip() {
        let flow = sample();
        let line = flow.to_jsonl();
        let parsed = Flow::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, flow);
    }

    #[test]
    fn class_labels_roundtrip() {
        for c in [
            FlowClass::Engine,
            FlowClass::Native,
            FlowClass::PinnedOpaque,
            FlowClass::Blocked,
        ] {
            assert_eq!(FlowClass::parse(c.as_str()), Some(c));
        }
        assert_eq!(FlowClass::parse("other"), None);
    }

    #[test]
    fn helpers() {
        let flow = sample();
        assert_eq!(flow.header("User-Agent"), Some("YaBrowser"));
        assert_eq!(flow.header("cookie"), None);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let mut v = sample().to_json();
        if let Value::Object(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "host");
        }
        assert!(Flow::from_json(&v).is_none());
    }
}
