//! End-to-end tests for the symmetry-canonical oracle: a real
//! `star-rings serve` process with `--oracle-path`, orbit-mate requests
//! over real sockets, restart persistence, and the `oracle
//! warm|stats|verify` CLI including corruption degradation.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use star_rings::fault::FaultSet;
use star_rings::obs::json::Json;
use star_rings::oracle::{canonicalize, Store};
use star_rings::perm::{delta::RingDelta, Aut, Perm};
use star_rings::ring::{embed_longest_ring, EmbedOptions};
use star_rings::serve::cache::key_for;
use star_rings::serve::client::{embed_request, plain_request};
use star_rings::serve::Client;
use star_rings::verify::check_ring;

/// A scratch directory under the system temp dir, wiped on creation.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("star-oracle-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `star-rings serve` child bound to an OS-assigned port.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_star-rings"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("announcement line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in announcement")
            .to_string();
        assert!(
            line.contains("star-serve listening on"),
            "unexpected announcement: {line:?}"
        );
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr, Duration::from_secs(10)).expect("client connects")
    }

    /// SIGINT and wait: the graceful drain flushes the oracle write-behind.
    #[cfg(unix)]
    fn interrupt_and_wait(mut self) -> std::process::ExitStatus {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-INT", &pid])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -INT failed");
        let status = self.child.wait().expect("server exits");
        std::mem::forget(self);
        status
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// An embed request that also asks for the ring itself.
fn embed_with_ring(id: &str, n: usize, faults: &[String]) -> Json {
    let mut req = embed_request(id, n, faults, None);
    if let Json::Obj(members) = &mut req {
        members.push(("return_ring".to_string(), Json::Bool(true)));
    }
    req
}

/// Parses the `ring` array of an embed response into permutations.
fn parse_ring(response: &Json) -> Vec<Perm> {
    response
        .get("ring")
        .and_then(Json::as_arr)
        .expect("ring array")
        .iter()
        .map(|v| {
            v.as_str()
                .expect("ring vertex is a string")
                .parse::<Perm>()
                .expect("ring vertex parses")
        })
        .collect()
}

/// The served ring must be valid for the *literal* faults of the request
/// — an orbit hit that skipped the witness map-back would fail this.
fn assert_ring_valid(n: usize, response: &Json, faults: &[String]) {
    let ring = parse_ring(response);
    let fault_set = FaultSet::from_vertices(
        n,
        faults
            .iter()
            .map(|f| f.parse::<Perm>().expect("fault parses"))
            .collect::<Vec<_>>(),
    )
    .expect("faults are distinct");
    assert_eq!(
        ring.len() as u64,
        get_u64(response, "ring_len"),
        "ring/ring_len mismatch"
    );
    check_ring(n, &ring, &fault_set).expect("served ring must satisfy check_ring");
}

#[test]
fn orbit_mate_hits_canonically_and_maps_back_to_the_literal_frame() {
    let dir = scratch_dir("hit");
    let server = Server::start(&["--oracle-path", dir.to_str().unwrap(), "--threads", "2"]);
    let mut client = server.connect();

    // First scenario: one fault. Cold — a canonical miss.
    let f1 = vec!["21345".to_string()];
    let r1 = client.call(&embed_with_ring("e1", 5, &f1)).unwrap();
    assert!(is_ok(&r1), "{r1}");
    assert_eq!(r1.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(get_u64(&r1, "ring_len"), 118);
    assert_ring_valid(5, &r1, &f1);

    // Any other single fault is an orbit-mate (Aut(S_n) is transitive
    // on vertices): a literal-key cache would miss, the canonical key
    // must hit — and the ring must be remapped to avoid *this* fault.
    let f2 = vec!["32145".to_string()];
    let r2 = client.call(&embed_with_ring("e2", 5, &f2)).unwrap();
    assert!(is_ok(&r2), "{r2}");
    assert_eq!(
        r2.get("cached"),
        Some(&Json::Bool(true)),
        "orbit-mate must be served from the canonical cache: {r2}"
    );
    assert_eq!(get_u64(&r2, "ring_len"), 118);
    assert_ring_valid(5, &r2, &f2);

    let stats = client.call(&plain_request("s1", "stats")).unwrap();
    let oracle = stats.get("oracle").expect("oracle stats block");
    assert!(get_u64(oracle, "canonical_hits") >= 1, "{stats}");
    assert_eq!(get_u64(oracle, "misses"), 1, "{stats}");
}

/// A one-scenario `embed_batch` for `S_6`; returns the batch's item.
fn batch_item(client: &mut Client, id: &str, faults: &[String]) -> Json {
    let scenario = Json::Arr(faults.iter().map(|f| Json::from(f.as_str())).collect());
    let request = Json::Obj(vec![
        ("kind".to_string(), Json::from("embed_batch")),
        ("id".to_string(), Json::from(id)),
        ("n".to_string(), Json::from(6u64)),
        ("return_ring".to_string(), Json::Bool(true)),
        ("scenarios".to_string(), Json::Arr(vec![scenario])),
    ]);
    let response = client.call(&request).unwrap();
    assert!(is_ok(&response), "{response}");
    response.get("items").and_then(Json::as_arr).expect("items")[0].clone()
}

/// An orbit-mate of an `S_6` fault list under a seeded automorphism.
fn orbit_mate6(faults: &[String], seed: u64) -> Vec<String> {
    let aut = Aut::from_ranks(6, seed, seed.rotate_left(17));
    let mates: Vec<String> = faults
        .iter()
        .map(|f| aut.apply(&f.parse::<Perm>().unwrap()).to_string())
        .collect();
    assert_ne!(mates, faults, "automorphism should move the fault list");
    mates
}

/// Single and batch embeds file rings under one canonical cache: a
/// batch miss serves a single embed of an orbit-mate, and a single
/// embed's miss serves a batch item of an orbit-mate.
#[test]
fn single_and_batch_embeds_share_the_canonical_cache() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();

    // Batch first: a miss, then a single embed of an orbit-mate hits.
    let f1 = vec!["213456".to_string(), "321456".to_string()];
    let item = batch_item(&mut client, "b1", &f1);
    assert!(is_ok(&item), "{item}");
    assert_eq!(item.get("cached"), Some(&Json::Bool(false)), "{item}");
    assert_ring_valid(6, &item, &f1);
    let f1_mate = orbit_mate6(&f1, 0x5eed_cafe);
    let single = client.call(&embed_with_ring("s1", 6, &f1_mate)).unwrap();
    assert!(is_ok(&single), "{single}");
    assert_eq!(single.get("cached"), Some(&Json::Bool(true)), "{single}");
    assert_ring_valid(6, &single, &f1_mate);

    // Single first: a miss (three faults: another orbit), then a batch
    // item of an orbit-mate hits.
    let f2 = vec![
        "231456".to_string(),
        "124356".to_string(),
        "654321".to_string(),
    ];
    let single = client.call(&embed_with_ring("s2", 6, &f2)).unwrap();
    assert!(is_ok(&single), "{single}");
    assert_eq!(single.get("cached"), Some(&Json::Bool(false)), "{single}");
    let f2_mate = orbit_mate6(&f2, 0x0dd_ba11);
    let item = batch_item(&mut client, "b2", &f2_mate);
    assert!(is_ok(&item), "{item}");
    assert_eq!(item.get("cached"), Some(&Json::Bool(true)), "{item}");
    assert_ring_valid(6, &item, &f2_mate);
}

#[cfg(unix)]
#[test]
fn warmed_store_serves_canonical_hits_across_restart() {
    let dir = scratch_dir("restart");
    let path = dir.to_str().unwrap().to_string();
    let n = 6usize;
    let faults = vec!["213456".to_string(), "321456".to_string()];

    // First server life: populate the store (write-behind flushes on
    // the SIGINT drain).
    {
        let server = Server::start(&["--oracle-path", &path]);
        let mut client = server.connect();
        let r = client
            .call(&embed_request("warm", n, &faults, None))
            .unwrap();
        assert!(is_ok(&r), "{r}");
        let status = server.interrupt_and_wait();
        assert!(status.success(), "graceful drain must exit 0");
    }

    // Second life: a *different* orbit-mate of the same scenario must be
    // served from disk without recomputation — cached on the very first
    // request of the fresh process.
    let aut = Aut::from_ranks(n, 0x5eed_cafe, 0x0dd_ba11);
    let mates: Vec<String> = faults
        .iter()
        .map(|f| aut.apply(&f.parse::<Perm>().unwrap()).to_string())
        .collect();
    assert_ne!(mates, faults, "automorphism should move the fault list");

    let server = Server::start(&["--oracle-path", &path]);
    let mut client = server.connect();
    let r = client.call(&embed_with_ring("mate", n, &mates)).unwrap();
    assert!(is_ok(&r), "{r}");
    assert_eq!(
        r.get("cached"),
        Some(&Json::Bool(true)),
        "restart + orbit-mate must be a store hit: {r}"
    );
    assert_eq!(get_u64(&r, "ring_len"), 716);
    assert_ring_valid(n, &r, &mates);

    let stats = client.call(&plain_request("s", "stats")).unwrap();
    let oracle = stats.get("oracle").expect("oracle stats block");
    assert!(get_u64(oracle, "canonical_hits") >= 1, "{stats}");
    assert_eq!(get_u64(oracle, "misses"), 0, "{stats}");
    let store = oracle.get("store").expect("store stats block");
    assert!(get_u64(store, "records") >= 1, "{stats}");
    assert!(get_u64(store, "hits") >= 1, "{stats}");
}

/// A checksum-valid store record that is not a valid ring delta (one
/// step names dimension 0) must read as a miss on both the single and
/// the batch path: counted, re-embedded, and never an `embed_failed`.
#[test]
fn a_stored_record_that_is_not_a_ring_degrades_to_a_fresh_embed() {
    let dir = scratch_dir("bad-record");
    let path = dir.to_str().unwrap().to_string();
    let n = 6usize;
    let faults = vec!["213456".to_string(), "321456".to_string()];
    let ranks: Vec<u32> = faults
        .iter()
        .map(|f| f.parse::<Perm>().unwrap().rank())
        .collect();
    let canon = canonicalize(n, &ranks);
    let key = key_for(&canon, &EmbedOptions::default());
    {
        let canon_faults = FaultSet::from_vertices(
            n,
            canon
                .ranks()
                .iter()
                .map(|&r| Perm::unrank(n, r).unwrap())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let ring = embed_longest_ring(n, &canon_faults).unwrap();
        let delta = RingDelta::encode(ring.vertices()).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.append_batch(&[(key.clone(), delta)]).unwrap(), 1);
    }
    // Forge the record: zero the first step's dimension (the low nibble
    // of the first dims byte, which follows the 20-byte header, the two
    // fault ranks and the 8-byte start vertex), then re-seal the FNV-1a
    // trailer so that only the delta check can catch it.
    let seg = dir.join("seg-000000.sos");
    let mut bytes = std::fs::read(&seg).unwrap();
    let dims_at = 20 + 4 * faults.len() + 8;
    assert_ne!(bytes[dims_at] & 0x0F, 0);
    bytes[dims_at] &= 0xF0;
    let body = bytes.len() - 8;
    let sum = bytes[..body]
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&seg, &bytes).unwrap();
    assert!(matches!(
        Store::open(&dir).unwrap().get_delta(&key),
        Some(Err(_))
    ));

    let bad_records = |client: &mut Client| {
        let stats = client.call(&plain_request("s", "stats")).unwrap();
        let store = stats
            .get("oracle")
            .and_then(|o| o.get("store"))
            .expect("store stats block");
        get_u64(store, "bad_records")
    };

    let server = Server::start(&["--oracle-path", &path]);
    let mut client = server.connect();
    let r = client.call(&embed_with_ring("bad", n, &faults)).unwrap();
    assert!(
        is_ok(&r),
        "a bad stored record must degrade to an embed: {r}"
    );
    assert_eq!(r.get("cached"), Some(&Json::Bool(false)), "{r}");
    assert_ring_valid(n, &r, &faults);
    assert_eq!(bad_records(&mut client), 1);
    drop(server);

    // A fresh process (empty LRU) reads the same record on the batch path.
    let server = Server::start(&["--oracle-path", &path]);
    let mut client = server.connect();
    let batch = Json::parse(
        r#"{"kind":"embed_batch","id":"b","n":6,"return_ring":true,
            "scenarios":[["213456","321456"]]}"#,
    )
    .unwrap();
    let r = client.call(&batch).unwrap();
    assert!(is_ok(&r), "{r}");
    let item = &r.get("items").and_then(Json::as_arr).expect("items")[0];
    assert!(is_ok(item), "{r}");
    assert_eq!(item.get("cached"), Some(&Json::Bool(false)), "{r}");
    assert_ring_valid(n, item, &faults);
    assert_eq!(bad_records(&mut client), 1);
}

#[test]
fn warm_verify_cli_round_trips_and_corruption_fails_the_gate() {
    let dir = scratch_dir("cli");
    let path = dir.to_str().unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_star-rings"))
            .args(args)
            .output()
            .expect("cli runs")
    };

    let warm = run(&[
        "oracle", "warm", "--path", path, "--n", "5", "--count", "8", "--seed", "9",
    ]);
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );

    let stats = run(&["oracle", "stats", "--path", path]);
    assert!(stats.status.success());
    let stats_text = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(stats_text.contains("records:"), "{stats_text}");

    let verify = run(&["oracle", "verify", "--path", path]);
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(
        String::from_utf8_lossy(&verify.stdout).contains("ok"),
        "{}",
        String::from_utf8_lossy(&verify.stdout)
    );

    // Flip one byte in the middle of a segment: the checksum must catch
    // it, the degraded record reads as a miss, and the verify gate goes
    // red — never a wrong ring, never a panic.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("seg-") && f.ends_with(".sos"))
        })
        .expect("a segment file exists");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let verify = run(&["oracle", "verify", "--path", path]);
    assert!(
        !verify.status.success(),
        "verify must fail on a corrupted segment: {}",
        String::from_utf8_lossy(&verify.stdout)
    );
    assert!(
        String::from_utf8_lossy(&verify.stderr).contains("FAIL"),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
}
