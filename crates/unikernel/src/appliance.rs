//! Appliances: the application logic compiled into a unikernel.
//!
//! The evaluation exercises two appliance shapes: small personal web sites
//! (the `alice.family.name` scenario of §3.3.2 and §5) and the HTTP
//! persistent-queue service whose disk-bound throughput §4 reports at
//! 57.92 Mb/s. Both are implemented against the plain [`netstack::http`]
//! types so they can be driven over the simulated bridge, over a conduit or
//! directly in tests.

use jitsu_sim::{SimDuration, SimRng};
use netstack::http::{HttpRequest, HttpResponse};
use netstack::FrameBuf;
use platform::StorageDevice;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Application logic hosted inside a unikernel.
pub trait Appliance: std::fmt::Debug {
    /// The service name (matches the DNS label Jitsu maps to it).
    fn name(&self) -> &str;

    /// Handle one HTTP request, returning the response and the simulated
    /// processing time (most appliances are CPU-trivial; storage-backed ones
    /// charge their I/O).
    fn handle(&mut self, request: &HttpRequest, rng: &mut SimRng) -> (HttpResponse, SimDuration);
}

/// A static personal web site: a handful of pages served from memory.
#[derive(Debug, Clone)]
pub struct StaticSiteAppliance {
    name: String,
    /// Page bodies as shared buffers: serving a page hands the response an
    /// O(1) view instead of cloning the body per request.
    pages: BTreeMap<String, FrameBuf>,
    requests_served: u64,
}

impl StaticSiteAppliance {
    /// Create a site with a default index page.
    pub fn new(name: impl Into<String>) -> StaticSiteAppliance {
        let name = name.into();
        let mut pages = BTreeMap::new();
        pages.insert(
            "/".to_string(),
            FrameBuf::from_vec(
                format!("<html><body><h1>{name}</h1><p>served by a unikernel</p></body></html>")
                    .into_bytes(),
            ),
        );
        StaticSiteAppliance {
            name,
            pages,
            requests_served: 0,
        }
    }

    /// Add a page.
    pub fn add_page(&mut self, path: &str, body: impl Into<FrameBuf>) {
        self.pages.insert(path.to_string(), body.into());
    }

    /// Number of requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }
}

impl Appliance for StaticSiteAppliance {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, request: &HttpRequest, _rng: &mut SimRng) -> (HttpResponse, SimDuration) {
        self.requests_served += 1;
        let response = match self.pages.get(request.path()) {
            Some(body) if request.method() == "GET" => HttpResponse::ok(body),
            Some(_) => HttpResponse::with_status(405, "Method Not Allowed", FrameBuf::empty()),
            None => HttpResponse::not_found(),
        };
        // Serving from the OCaml heap costs microseconds.
        (response, SimDuration::from_micros(200))
    }
}

/// The HTTP persistent-queue service of §4: items are POSTed onto a queue
/// and GET pops them; the working set is larger than RAM, so every
/// operation touches the backing store and throughput is disk-bound.
#[derive(Debug, Clone)]
pub struct QueueAppliance {
    name: String,
    backing: StorageDevice,
    /// Queue of item sizes (contents live "on disk"; we track sizes so the
    /// I/O cost model is exercised without holding the data in memory).
    items: VecDeque<usize>,
    bytes_served: u64,
    /// Fraction of reads absorbed by the in-memory cache; the paper's
    /// working set exceeds RAM so most requests miss.
    cache_hit_rate: f64,
}

impl QueueAppliance {
    /// Create a queue backed by a storage device.
    pub fn new(name: impl Into<String>, backing: StorageDevice) -> QueueAppliance {
        QueueAppliance {
            name: name.into(),
            backing,
            items: VecDeque::new(),
            bytes_served: 0,
            cache_hit_rate: 0.1,
        }
    }

    /// Pre-populate the queue with `count` items of `size` bytes (the
    /// throughput experiment serves a working set prepared in advance).
    pub fn preload(&mut self, count: usize, size: usize) {
        for _ in 0..count {
            self.items.push_back(size);
        }
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total bytes served by GET requests.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

impl Appliance for QueueAppliance {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, request: &HttpRequest, rng: &mut SimRng) -> (HttpResponse, SimDuration) {
        match request.method() {
            "POST" => {
                let size = request.body.len();
                self.items.push_back(size);
                let io = self.backing.write_time(size, rng);
                (
                    HttpResponse::with_status(201, "Created", b"queued\n"),
                    io + SimDuration::from_micros(300),
                )
            }
            "GET" => match self.items.pop_front() {
                Some(size) => {
                    self.bytes_served += size as u64;
                    let io = if rng.chance(self.cache_hit_rate) {
                        SimDuration::from_micros(50)
                    } else {
                        self.backing.read_time(size, rng)
                    };
                    (
                        HttpResponse::ok(vec![0x51; size]),
                        io + SimDuration::from_micros(300),
                    )
                }
                None => (
                    HttpResponse::with_status(204, "No Content", FrameBuf::empty()),
                    SimDuration::from_micros(100),
                ),
            },
            _ => (
                HttpResponse::with_status(405, "Method Not Allowed", FrameBuf::empty()),
                SimDuration::from_micros(100),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::StorageKind;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(11)
    }

    #[test]
    fn static_site_serves_pages() {
        let mut site = StaticSiteAppliance::new("alice");
        site.add_page("/photos", b"<html>cats</html>".to_vec());
        let mut r = rng();
        let (resp, t) = site.handle(&HttpRequest::get("/", "alice.family.name"), &mut r);
        assert_eq!(resp.status, 200);
        assert!(String::from_utf8_lossy(&resp.body).contains("alice"));
        assert!(t < SimDuration::from_millis(1));
        let (resp, _) = site.handle(&HttpRequest::get("/photos", "alice.family.name"), &mut r);
        assert_eq!(resp.body, b"<html>cats</html>");
        let (resp, _) = site.handle(&HttpRequest::get("/missing", "alice.family.name"), &mut r);
        assert_eq!(resp.status, 404);
        let (resp, _) = site.handle(&HttpRequest::post("/", "h", vec![1]), &mut r);
        assert_eq!(resp.status, 405);
        assert_eq!(site.requests_served(), 4);
        assert_eq!(site.name(), "alice");
    }

    #[test]
    fn queue_post_then_get_round_trips() {
        let mut q = QueueAppliance::new("queue", StorageKind::SdCard.device());
        let mut r = rng();
        assert!(q.is_empty());
        let (resp, _) = q.handle(&HttpRequest::post("/q", "q", vec![7; 1000]), &mut r);
        assert_eq!(resp.status, 201);
        assert_eq!(q.len(), 1);
        let (resp, _) = q.handle(&HttpRequest::get("/q", "q"), &mut r);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 1000);
        assert_eq!(q.bytes_served(), 1000);
        let (resp, _) = q.handle(&HttpRequest::get("/q", "q"), &mut r);
        assert_eq!(resp.status, 204, "empty queue returns no content");
        let (resp, _) = q.handle(
            &HttpRequest::parse(&b"DELETE /q HTTP/1.1\r\n\r\n".into())
                .unwrap()
                .unwrap(),
            &mut r,
        );
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn queue_get_cost_is_disk_bound_on_sd_card() {
        // Serving 64 KiB items from a 10 MB/s SD card costs milliseconds per
        // request — which is what bounds throughput to tens of Mb/s in §4.
        let mut q = QueueAppliance::new("queue", StorageKind::SdCard.device());
        q.preload(100, 64 * 1024);
        let mut r = rng();
        let mut total = SimDuration::ZERO;
        let mut bytes = 0u64;
        for _ in 0..100 {
            let (resp, t) = q.handle(&HttpRequest::get("/q", "q"), &mut r);
            bytes += resp.body.len() as u64;
            total += t;
        }
        let mbps = (bytes as f64 * 8.0) / total.as_secs_f64() / 1e6;
        assert!(
            (30.0..90.0).contains(&mbps),
            "disk-bound throughput should be tens of Mb/s, got {mbps:.1}"
        );
    }

    #[test]
    fn queue_on_ssd_is_faster_than_sd() {
        let mut sd = QueueAppliance::new("q", StorageKind::SdCard.device());
        let mut ssd = QueueAppliance::new("q", StorageKind::Ssd.device());
        sd.preload(50, 64 * 1024);
        ssd.preload(50, 64 * 1024);
        let mut r = rng();
        let mut t_sd = SimDuration::ZERO;
        let mut t_ssd = SimDuration::ZERO;
        for _ in 0..50 {
            t_sd += sd.handle(&HttpRequest::get("/q", "q"), &mut r).1;
            t_ssd += ssd.handle(&HttpRequest::get("/q", "q"), &mut r).1;
        }
        assert!(t_sd > t_ssd);
    }
}
