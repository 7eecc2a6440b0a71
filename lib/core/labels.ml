let ma_read_active = "ma.read_active"
let ma_reserved = "ma.reserved"
let ma_pop_cas = "ma.pop_cas"
let ma_popped = "ma.popped"
let ua_install = "ua.install"
let ua_credits_cas = "ua.credits_cas"
let ua_return_credits = "ua.return_credits"
let mp_got_partial = "mp.got_partial"
let mp_reserve_cas = "mp.reserve_cas"
let mp_pop_cas = "mp.pop_cas"
let hgp_slot_cas = "hgp.slot_cas"
let mnsb_install = "mnsb.install"
let free_cas = "free.cas"
let free_empty = "free.empty"
let free_put_partial = "free.put_partial"
let red_slot_cas = "red.slot_cas"
let desc_alloc = "desc.alloc"
let desc_refill = "desc.refill"
let desc_retire = "desc.retire"
let desc_push = "desc.push"
let bc_reserve_cas = "bc.reserve_cas"
let bc_pop_cas = "bc.pop_cas"
let bc_flush_cas = "bc.flush_cas"
let pub_push = "pub.push"
let pub_claim = "pub.claim"
let ob_freeze = "ob.freeze"

let all =
  [
    ma_read_active;
    ma_reserved;
    ma_pop_cas;
    ma_popped;
    ua_install;
    ua_credits_cas;
    ua_return_credits;
    mp_got_partial;
    mp_reserve_cas;
    mp_pop_cas;
    hgp_slot_cas;
    mnsb_install;
    free_cas;
    free_empty;
    free_put_partial;
    red_slot_cas;
    desc_alloc;
    desc_refill;
    desc_retire;
    desc_push;
    bc_reserve_cas;
    bc_pop_cas;
    bc_flush_cas;
    pub_push;
    pub_claim;
    ob_freeze;
  ]

(* The census registry: how the contention-sites table groups this
   layer's labels. Everything that reports failed CASes — the harness's
   sites table, [Lf_alloc.retry_counts], the obs-vs-striped equality
   proof — derives its row set (and row order) from this list plus
   [Pg_labels.census_sites], so a new label shows up everywhere by
   being added here; one it can't be grouped under fails loudly.
   [census_markers] are the labels with no striped retry counter —
   pure scheduling points, or windows whose sole CAS is one-shot (a
   failure is a state change, not a retry). Together the two lists must
   partition [all] (asserted by the registry-completeness test). *)
let census_sites =
  [
    ("active.reserve", [ ma_read_active; mp_reserve_cas; bc_reserve_cas ]);
    ("anchor.pop", [ ma_pop_cas; mp_pop_cas; bc_pop_cas; ob_freeze ]);
    ("anchor.free", [ free_cas; bc_flush_cas ]);
    ("update_active", [ ua_credits_cas ]);
    ("partial.slot", [ free_put_partial ]);
    ("pub.push", [ pub_push ]);
    ("pub.claim", [ pub_claim ]);
  ]

let census_markers =
  [
    ma_reserved;
    ma_popped;
    ua_install;
    ua_return_credits;
    mp_got_partial;
    hgp_slot_cas;
    mnsb_install;
    free_empty;
    red_slot_cas;
    desc_alloc;
    desc_refill;
    desc_retire;
    desc_push;
  ]
