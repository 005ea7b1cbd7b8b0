//! Seeded input generation. Every trace a workload replays is built here
//! from the run's `--seed`; the program under test only ever receives the
//! finished traces.
//!
//! The seed decides, per trace, the hostname label in front of the
//! classifier's keyword (so the keyword sits at a seed-drawn offset of the
//! request), the request path length, and the response size. Sizes are
//! drawn stratified — one draw from each equal slice of the size range,
//! shuffled — so that a round's mean size hardly depends on the seed,
//! while each operation still sees a different size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use liberate_dpi::profiles::EnvKind;
use liberate_traces::apps::media_bytes;
use liberate_traces::http::{get_request, response};
use liberate_traces::recorded::{RecordedTrace, Sender, TraceProtocol};

/// One generated HTTP exchange, with the keyword the benchmark planted.
#[derive(Clone)]
pub struct Flow {
    pub trace: RecordedTrace,
    /// The classifier keyword planted in the request's Host header, if
    /// the target network classifies on one.
    pub keyword: &'static [u8],
}

impl Flow {
    /// Byte range of the planted keyword in the first client message,
    /// found by searching the generated bytes.
    pub fn keyword_range(&self) -> Option<std::ops::Range<usize>> {
        let request = &self.trace.messages.first()?.payload;
        let at = request
            .windows(self.keyword.len())
            .position(|w| w == self.keyword)?;
        Some(at..at + self.keyword.len())
    }

    pub fn response_bytes(&self) -> usize {
        self.trace.server_messages().map(|m| m.payload.len()).sum()
    }
}

pub struct Inputs {
    rng: StdRng,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            rng: StdRng::seed_from_u64(seed ^ 0x6c69_6265_7261_7465),
        }
    }

    /// `[a-z0-9]` label of a length drawn from `len`.
    fn label(&mut self, len: std::ops::RangeInclusive<usize>) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let n = self.rng.gen_range(len);
        (0..n)
            .map(|_| ALPHABET[self.rng.gen_range(0..ALPHABET.len())] as char)
            .collect()
    }

    /// A request path of 8 to 48 bytes.
    fn path(&mut self) -> String {
        let total = self.rng.gen_range(8..=48usize);
        let mut path = String::from("/");
        while path.len() < total {
            let seg = self.label(2..=10);
            path.push_str(&seg);
            path.push('/');
        }
        path.truncate(total);
        path
    }

    /// `n` sizes, one from each of `n` equal slices of `lo..hi`, shuffled.
    /// `hi - lo` must be at least `n`.
    pub fn stratified(&mut self, n: usize, lo: usize, hi: usize) -> Vec<usize> {
        let width = (hi - lo) / n;
        let mut sizes: Vec<usize> = (0..n)
            .map(|i| lo + i * width + self.rng.gen_range(0..width))
            .collect();
        for i in (1..n).rev() {
            let j = self.rng.gen_range(0..=i);
            sizes.swap(i, j);
        }
        sizes
    }

    /// An HTTP GET for `<label>.<keyword>` and a response of `body` bytes.
    pub fn http(
        &mut self,
        app: &str,
        keyword: &'static str,
        content_type: &str,
        body: usize,
    ) -> Flow {
        let host = format!("{}.{keyword}", self.label(3..=20));
        let path = self.path();
        let media_seed = self.rng.gen_range(1..u64::MAX);
        let mut trace = RecordedTrace::new(app, TraceProtocol::Tcp, 80);
        trace.push_stream(
            Sender::Client,
            &get_request(&host, &path, "liberate-perfbench/1.0"),
        );
        trace.push_stream(
            Sender::Server,
            &response(200, "OK", content_type, &media_bytes(body, media_seed)),
        );
        Flow {
            trace,
            keyword: keyword.as_bytes(),
        }
    }

    /// A copy of `flow` with a response of `body` bytes: same request
    /// bytes (so characterized field offsets carry over), new size.
    pub fn resized(&mut self, flow: &Flow, content_type: &str, body: usize) -> Flow {
        let mut trace = RecordedTrace::new(flow.trace.app.clone(), TraceProtocol::Tcp, 80);
        for m in flow.trace.client_messages() {
            trace.push_stream(Sender::Client, &m.payload);
        }
        let media_seed = self.rng.gen_range(1..u64::MAX);
        trace.push_stream(
            Sender::Server,
            &response(200, "OK", content_type, &media_bytes(body, media_seed)),
        );
        Flow {
            trace,
            keyword: flow.keyword,
        }
    }
}

/// What the `learn` workload plants per §6 network: the keyword its
/// classifier matches, the response type, and the response size range.
pub struct NetworkInputs {
    pub kind: EnvKind,
    pub keyword: &'static str,
    pub content_type: &'static str,
    pub sizes: (usize, usize),
}

/// The five packet-level §6 networks of the `learn` workload. Testbed
/// responses must exceed its 420 KB token-bucket burst for throttling to
/// show; T-Mobile's must move the 200 KB its zero-rating signal needs.
/// Sprint has no classifier; the keyword is planted all the same.
pub const LEARN_NETWORKS: [NetworkInputs; 5] = [
    NetworkInputs {
        kind: EnvKind::Testbed,
        keyword: "cloudfront.net",
        content_type: "video/mp4",
        sizes: (500_000, 700_000),
    },
    NetworkInputs {
        kind: EnvKind::TMobile,
        keyword: "cloudfront.net",
        content_type: "video/mp4",
        sizes: (250_000, 400_000),
    },
    NetworkInputs {
        kind: EnvKind::Gfc,
        keyword: "economist.com",
        content_type: "text/html",
        sizes: (8_000, 32_000),
    },
    NetworkInputs {
        kind: EnvKind::Iran,
        keyword: "facebook.com",
        content_type: "text/html",
        sizes: (8_000, 32_000),
    },
    NetworkInputs {
        kind: EnvKind::Sprint,
        keyword: "cloudfront.net",
        content_type: "video/mp4",
        sizes: (250_000, 400_000),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::new(7).http("a", "economist.com", "text/html", 100);
        let b = Inputs::new(7).http("a", "economist.com", "text/html", 100);
        let c = Inputs::new(8).http("a", "economist.com", "text/html", 100);
        assert_eq!(a.trace.messages, b.trace.messages);
        assert_ne!(a.trace.messages, c.trace.messages);
    }

    #[test]
    fn keyword_is_found_where_it_was_planted() {
        let f = Inputs::new(1).http("a", "facebook.com", "text/html", 10);
        let r = f.keyword_range().expect("keyword planted");
        assert_eq!(&f.trace.messages[0].payload[r], b"facebook.com");
    }

    #[test]
    fn stratified_sizes_cover_each_slice_once() {
        let mut sizes = Inputs::new(3).stratified(10, 200, 1200);
        sizes.sort_unstable();
        for (i, s) in sizes.iter().enumerate() {
            assert!(
                (200 + i * 100..200 + (i + 1) * 100).contains(s),
                "{sizes:?}"
            );
        }
    }

    #[test]
    fn resized_flow_keeps_the_request() {
        let mut inputs = Inputs::new(5);
        let f = inputs.http("a", "economist.com", "text/html", 10);
        let g = inputs.resized(&f, "text/html", 99);
        assert_eq!(f.trace.messages[0], g.trace.messages[0]);
        assert!(g.response_bytes() > f.response_bytes());
    }
}
