//! Golden transcripts for `comsig stream`: the full output of both
//! tasks on both tiers over one small fixed event file, plus both tasks
//! on overlapping and gapped windows. Any change to these bytes is a
//! user-visible change to the streaming CLI.

use std::path::{Path, PathBuf};
use std::process::Command;

/// 48 events over 6 hosts and 5 destinations, four width-12 windows;
/// hosts h0 and h1 swap destination sets in window 2.
fn event_file() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("comsig-stream-golden")
        .join(format!("{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("events.txt");
    let mut text = String::new();
    for t in 0..48u64 {
        let mut src = t % 6;
        if t / 12 == 2 && src < 2 {
            src = 1 - src;
        }
        let dst = (t % 6 + (t / 6) % 2) % 5;
        text.push_str(&format!("{t} h{src} x{dst} {}\n", 1 + t % 4));
    }
    std::fs::write(&path, text).expect("write events");
    path
}

fn stream(events: &Path, task: &str, tier: &str, slide: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_comsig"))
        .args(["stream", "--input", events.to_str().unwrap()])
        .args(["--window-width", "12", "--slide", slide])
        .args(["--k", "3", "--scheme", "tt"])
        .args(["--task", task, "--tier", tier, "--threads", "2"])
        .output()
        .expect("run comsig stream");
    assert!(out.status.success(), "{task}/{tier}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

const ANOMALY_EXACT: &str = r"streaming anomaly over 6 subjects, scheme TT, dist SHel (width 12, slide 12)
window [0, 12): 12 edge changes, 6/6 recomputed
  h0               score = 1.0000
  h1               score = 1.0000
  h2               score = 1.0000
  h3               score = 1.0000
  h4               score = 1.0000
window [12, 24): 0 edge changes, 0/6 recomputed
window [24, 36): 6 edge changes, 2/6 recomputed
  h0               score = 0.7000
  h1               score = 0.7000
window [36, 48): 6 edge changes, 2/6 recomputed
  h0               score = 0.7000
  h1               score = 0.7000
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

const MASQUERADE_EXACT: &str = r"streaming masquerade over 6 subjects, scheme TT, dist SHel (width 12, slide 12)
window [0, 12): 12 edge changes, 6/6 recomputed, delta = 0.0000, 6 re-paired
  h0 -> h1
  h1 -> h0
  h2 -> h0
  h3 -> h0
  h4 -> h0
  h5 -> h0
window [12, 24): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [24, 36): 6 edge changes, 2/6 recomputed, delta = 0.1533, 0 re-paired
window [36, 48): 6 edge changes, 2/6 recomputed, delta = 0.1533, 0 re-paired
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

const ANOMALY_SKETCH: &str = r"streaming anomaly over 6 subjects, scheme TT, dist SHel (width 12, slide 12)
window [0, 12): 12 edge changes, 6/6 recomputed
  h0               score = 1.0000
  h1               score = 1.0000
  h2               score = 1.0000
  h3               score = 1.0000
  h4               score = 1.0000
window [12, 24): 0 edge changes, 0/6 recomputed
window [24, 36): 6 edge changes, 2/6 recomputed
  h0               score = 0.7000
  h1               score = 0.7000
window [36, 48): 6 edge changes, 2/6 recomputed
  h0               score = 0.7000
  h1               score = 0.7000
sketch tier: 3256 state entries (~25 KiB), 0 matcher entries, 0 dropped changes
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

const MASQUERADE_SKETCH: &str = r"streaming masquerade over 6 subjects, scheme TT, dist SHel (width 12, slide 12)
window [0, 12): 12 edge changes, 6/6 recomputed, delta = 0.0000, 6 re-paired
  h0 -> h1
  h1 -> h0
  h2 -> h0
  h3 -> h0
  h4 -> h0
  h5 -> h0
window [12, 24): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [24, 36): 6 edge changes, 2/6 recomputed, delta = 0.1533, 0 re-paired
window [36, 48): 6 edge changes, 2/6 recomputed, delta = 0.1533, 0 re-paired
sketch tier: 3256 state entries (~25 KiB), 978 matcher entries, 0 dropped changes
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

#[test]
fn stream_output_is_pinned_on_both_tiers_and_tasks() {
    let events = event_file();
    for (task, tier, want) in [
        ("anomaly", "exact", ANOMALY_EXACT),
        ("masquerade", "exact", MASQUERADE_EXACT),
        ("anomaly", "sketch", ANOMALY_SKETCH),
        ("masquerade", "sketch", MASQUERADE_SKETCH),
    ] {
        let got = stream(&events, task, tier, "12");
        assert_eq!(got, want, "{task} on the {tier} tier");
    }
}

const ANOMALY_OVERLAP: &str = r"streaming anomaly over 6 subjects, scheme TT, dist SHel (width 12, slide 4)
window [0, 12): 12 edge changes, 6/6 recomputed
  h0               score = 1.0000
  h1               score = 1.0000
  h2               score = 1.0000
  h3               score = 1.0000
  h4               score = 1.0000
window [4, 16): 0 edge changes, 0/6 recomputed
window [8, 20): 0 edge changes, 0/6 recomputed
window [12, 24): 0 edge changes, 0/6 recomputed
window [16, 28): 4 edge changes, 2/6 recomputed
  h1               score = 0.4523
  h0               score = 0.3072
window [20, 32): 4 edge changes, 2/6 recomputed
  h1               score = 0.8758
  h0               score = 0.6536
window [24, 36): 0 edge changes, 0/6 recomputed
window [28, 40): 4 edge changes, 2/6 recomputed
  h0               score = 0.4523
  h1               score = 0.3072
window [32, 44): 4 edge changes, 2/6 recomputed
  h0               score = 0.8758
  h1               score = 0.6536
window [36, 48): 0 edge changes, 0/6 recomputed
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

const MASQUERADE_OVERLAP: &str = r"streaming masquerade over 6 subjects, scheme TT, dist SHel (width 12, slide 4)
window [0, 12): 12 edge changes, 6/6 recomputed, delta = 0.0000, 6 re-paired
  h0 -> h1
  h1 -> h0
  h2 -> h0
  h3 -> h0
  h4 -> h0
  h5 -> h0
window [4, 16): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [8, 20): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [12, 24): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [16, 28): 4 edge changes, 2/6 recomputed, delta = 0.1747, 0 re-paired
window [20, 32): 4 edge changes, 2/6 recomputed, delta = 0.1490, 0 re-paired
window [24, 36): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
window [28, 40): 4 edge changes, 2/6 recomputed, delta = 0.1747, 0 re-paired
window [32, 44): 4 edge changes, 2/6 recomputed, delta = 0.1490, 0 re-paired
window [36, 48): 0 edge changes, 0/6 recomputed, delta = 0.2000, 0 re-paired
stream drained: 0 invalid, 0 late, 0 gap-dropped events
";

const ANOMALY_GAPPED: &str = r"streaming anomaly over 6 subjects, scheme TT, dist SHel (width 12, slide 18)
window [0, 12): 12 edge changes, 6/6 recomputed
  h0               score = 1.0000
  h1               score = 1.0000
  h2               score = 1.0000
  h3               score = 1.0000
  h4               score = 1.0000
window [18, 30): 4 edge changes, 2/6 recomputed
  h1               score = 0.4523
  h0               score = 0.3072
window [36, 48): 4 edge changes, 2/6 recomputed
  h1               score = 0.4523
  h0               score = 0.3072
stream drained: 0 invalid, 0 late, 12 gap-dropped events
";

const MASQUERADE_GAPPED: &str = r"streaming masquerade over 6 subjects, scheme TT, dist SHel (width 12, slide 18)
window [0, 12): 12 edge changes, 6/6 recomputed, delta = 0.0000, 6 re-paired
  h0 -> h1
  h1 -> h0
  h2 -> h0
  h3 -> h0
  h4 -> h0
  h5 -> h0
window [18, 30): 4 edge changes, 2/6 recomputed, delta = 0.1747, 0 re-paired
window [36, 48): 4 edge changes, 2/6 recomputed, delta = 0.1747, 0 re-paired
stream drained: 0 invalid, 0 late, 12 gap-dropped events
";

/// Slide 4 keeps two thirds of each window's events into the next, and
/// slide 18 drops the six time steps between windows; both tasks must
/// print these bytes.
#[test]
fn stream_output_is_pinned_on_overlapping_and_gapped_windows() {
    let events = event_file();
    for (task, slide, want) in [
        ("anomaly", "4", ANOMALY_OVERLAP),
        ("masquerade", "4", MASQUERADE_OVERLAP),
        ("anomaly", "18", ANOMALY_GAPPED),
        ("masquerade", "18", MASQUERADE_GAPPED),
    ] {
        let got = stream(&events, task, "exact", slide);
        assert_eq!(got, want, "{task} at slide {slide}");
    }
}
