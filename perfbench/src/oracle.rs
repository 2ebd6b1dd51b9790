//! Correctness references, computed outside the timed region.
//!
//! A round's finalized view is rebuilt in cleartext: each reporting
//! user's distinct ad IDs (from the impression log, mapped through the
//! IDs ingestion learned) are inserted into one count-min sketch, and
//! the whole ID space is enumerated exactly as the backend does. No
//! blinding, bus, codec or shard is involved, so the reference shares
//! nothing with the path under test but the sketch and the view types.

use crate::adapter::ViewParams;
use ew_core::{AdKey, GlobalView};
use ew_simnet::ImpressionLog;
use ew_sketch::CountMinSketch;
use std::collections::{BTreeMap, BTreeSet};

/// Each reporting user's distinct ad IDs.
pub fn seen_ads(
    log: &ImpressionLog,
    reporters: &BTreeSet<u32>,
    key_of: impl Fn(u64) -> Option<AdKey>,
) -> Result<BTreeMap<u32, BTreeSet<AdKey>>, String> {
    let mut seen: BTreeMap<u32, BTreeSet<AdKey>> =
        reporters.iter().map(|&u| (u, BTreeSet::new())).collect();
    for r in log.records() {
        if let Some(ads) = seen.get_mut(&r.user) {
            let key = key_of(r.ad).ok_or_else(|| format!("ad {} was never mapped", r.ad))?;
            ads.insert(key);
        }
    }
    Ok(seen)
}

/// The reference view over `seen`.
pub fn cleartext_view(seen: &BTreeMap<u32, BTreeSet<AdKey>>, params: ViewParams) -> GlobalView {
    let mut sketch = CountMinSketch::new(params.cms);
    for ad in seen.values().flatten() {
        sketch.update(*ad);
    }
    GlobalView::from_estimates(
        (0..params.capacity).map(|ad| (ad, sketch.query(ad) as f64)),
        params.policy,
    )
}

/// Fails if `view` counts fewer users for some ad than actually saw it.
pub fn check_never_undercounts(
    view: &GlobalView,
    seen: &BTreeMap<u32, BTreeSet<AdKey>>,
) -> Result<(), String> {
    let mut users: BTreeMap<AdKey, u32> = BTreeMap::new();
    for ad in seen.values().flatten() {
        *users.entry(*ad).or_default() += 1;
    }
    for (ad, count) in users {
        if view.users(ad) < count as f64 {
            return Err(format!(
                "ad {ad}: view counts {} users, {count} saw it",
                view.users(ad)
            ));
        }
    }
    Ok(())
}

/// The reference view for `reporters`, checked against the cleartext
/// per-ad user counts.
pub fn reference_view(
    log: &ImpressionLog,
    reporters: &BTreeSet<u32>,
    key_of: impl Fn(u64) -> Option<AdKey>,
    params: ViewParams,
) -> Result<GlobalView, String> {
    let seen = seen_ads(log, reporters, key_of)?;
    let view = cleartext_view(&seen, params);
    check_never_undercounts(&view, &seen)?;
    Ok(view)
}
