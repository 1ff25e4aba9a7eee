#include "binaa/core.hpp"

namespace delphi::binaa {

BinAaCore::BinAaCore(const Config& cfg)
    : n_(static_cast<std::uint16_t>(cfg.n)),
      t_(static_cast<std::uint16_t>(cfg.t)),
      r_max_(static_cast<std::uint8_t>(cfg.r_max)) {
  DELPHI_ASSERT(cfg.n <= 0xFFFF, "BinAA n must fit in 16 bits");
  DELPHI_ASSERT(cfg.n > 3 * cfg.t, "BinAA requires n > 3t");
  DELPHI_ASSERT(cfg.r_max >= 1 && cfg.r_max <= 62, "BinAA r_max in [1,62]");
}

void BinAaCore::alloc_state() {
  // A started core walks every round, so the first touch sizes the records
  // and a typical pool (three round sets plus ~two value sets per round).
  st_ = std::make_unique<State>();
  st_->rounds.resize(r_max_);
  st_->pool.reserve(std::size_t{5} * r_max_ * set_words());
}

void BinAaCore::init_round(Round& rs) {
  rs.initialized = true;
  rs.e1_seen_once = new_set();
  rs.e1_seen_twice = new_set();
  rs.e2_senders = new_set();
}

std::uint32_t BinAaCore::new_set() {
  std::vector<std::uint64_t>& pool = st_->pool;
  const auto offset = static_cast<std::uint32_t>(pool.size());
  pool.resize(pool.size() + set_words(), 0);
  return offset;
}

BinAaCore::Spill* BinAaCore::find_spill(std::uint32_t round, List list,
                                        ScaledValue v) {
  for (Spill& s : st_->spill) {
    if (s.round == round && s.list == list && s.tally.value == v) return &s;
  }
  return nullptr;
}

BinAaCore::Tally* BinAaCore::find_tally(Tally* inl, std::uint8_t used,
                                        std::uint32_t round, List list,
                                        ScaledValue v) {
  for (std::uint8_t i = 0; i < used; ++i) {
    if (inl[i].value == v) return &inl[i];
  }
  if (used < kInline) return nullptr;  // spilling starts once slots are full
  Spill* s = find_spill(round, list, v);
  return s != nullptr ? &s->tally : nullptr;
}

BinAaCore::Tally& BinAaCore::add_tally(Tally* inl, std::uint8_t& used,
                                       std::uint32_t round, List list,
                                       ScaledValue v, bool with_set) {
  const Tally fresh{v, with_set ? new_set() : 0, 0};
  if (used < kInline) {
    inl[used] = fresh;
    return inl[used++];
  }
  st_->spill.push_back(Spill{fresh, round, list});
  return st_->spill.back().tally;
}

bool BinAaCore::note_sent(Round& rs, std::uint32_t round, ScaledValue v) {
  for (std::uint8_t i = 0; i < rs.n_sent; ++i) {
    if (rs.sent[i] == v) return false;
  }
  if (rs.n_sent < kInline) {
    rs.sent[rs.n_sent++] = v;
    return true;
  }
  if (find_spill(round, List::kSent, v) != nullptr) return false;
  st_->spill.push_back(Spill{Tally{v, 0, 0}, round, List::kSent});
  return true;
}

bool BinAaCore::valid_value(std::uint32_t round, ScaledValue v) const {
  if (v < 0 || v > scale()) return false;
  return (v & (granularity(round) - 1)) == 0;  // granularity is a power of 2
}

void BinAaCore::start(bool input, std::vector<EchoAction>& out) {
  DELPHI_ASSERT(!started_, "BinAA started twice");
  started_ = true;
  round_ = 1;
  state_value_ = input ? scale() : 0;
  begin_round(out);
}

void BinAaCore::begin_round(std::vector<EchoAction>& out) {
  Round& rs = round_state(round_);
  if (note_sent(rs, round_, state_value_)) {
    out.push_back(EchoAction{/*kind=*/1, round_, state_value_});
  }
}

void BinAaCore::on_echo(std::uint8_t kind, std::uint32_t round,
                        ScaledValue value, NodeId from,
                        std::vector<EchoAction>& out) {
  if (done_) return;
  // Byzantine-robust input validation: silently ignore garbage.
  if (kind < 1 || kind > 2) return;
  if (round < 1 || round > r_max_) return;
  if (from >= n_) return;
  if (!valid_value(round, value)) return;

  Round& rs = round_state(round);
  if (kind == 1) {
    Tally* votes = find_tally(rs.e1, rs.n_e1, round, List::kEcho1, value);
    if (votes != nullptr && set_contains(votes->senders, from)) {
      return;  // duplicate (value, sender)
    }
    // A sender is counted for at most two distinct ECHO1 values per round —
    // honest nodes never send more (own value + one amplification), so the
    // cap only sheds Byzantine multi-voting.
    if (set_contains(rs.e1_seen_twice, from)) return;
    if (!set_insert(rs.e1_seen_once, from)) set_insert(rs.e1_seen_twice, from);
    if (votes == nullptr) {
      votes = &add_tally(rs.e1, rs.n_e1, round, List::kEcho1, value,
                         /*with_set=*/true);
    }
    set_insert(votes->senders, from);
    // Threshold-crossing gate: exactly one vote arrived, so a trigger can
    // only newly fire when *this* value's tally just reached t+1 (Bracha
    // amplification) or n-t (ECHO2 send / round advance) — every other
    // tally, and hence every other trigger input, is unchanged. Counts move
    // in steps of one, so crossings coincide with equality.
    const std::size_t tally = ++votes->count;
    if (tally == t_ + 1u || tally == std::uint32_t{n_} - t_) {
      run_triggers(round, out);
      if (started_) try_advance(out);
    }
  } else {
    if (!set_insert(rs.e2_senders, from)) return;  // one ECHO2 per sender
    Tally* votes = find_tally(rs.e2, rs.n_e2, round, List::kEcho2, value);
    if (votes == nullptr) {
      votes = &add_tally(rs.e2, rs.n_e2, round, List::kEcho2, value,
                         /*with_set=*/false);
    }
    // ECHO2s never feed run_triggers (it reads only ECHO1 state); advance
    // condition (2) can only newly hold at its n-t crossing.
    if (++votes->count == std::uint32_t{n_} - t_ && started_) try_advance(out);
  }
}

void BinAaCore::run_triggers(std::uint32_t round, std::vector<EchoAction>& out) {
  Round& rs = round_state(round);

  // Bracha-style amplification: t+1 ECHO1s for a value we haven't echoed.
  // note_sent may spill, which is why walk hands out copies.
  walk(rs.e1, rs.n_e1, round, List::kEcho1, [&](Tally votes) {
    if (votes.count >= t_ + 1u && note_sent(rs, round, votes.value)) {
      out.push_back(EchoAction{/*kind=*/1, round, votes.value});
    }
    return false;
  });

  // ECHO2 once some value gathers n-t ECHO1s (at most one ECHO2 per round).
  if (!rs.e2_sent) {
    walk(rs.e1, rs.n_e1, round, List::kEcho1, [&](Tally votes) {
      if (votes.count < std::uint32_t{n_} - t_) return false;
      rs.e2_sent = true;
      out.push_back(EchoAction{/*kind=*/2, round, votes.value});
      return true;
    });
  }
}

void BinAaCore::try_advance(std::vector<EchoAction>& out) {
  for (;;) {
    Round& rs = round_state(round_);
    const std::uint32_t quorum = std::uint32_t{n_} - t_;

    ScaledValue next = 0;
    bool advanced = false;

    // Condition (2): n-t ECHO2s for one value -> adopt it.
    walk(rs.e2, rs.n_e2, round_, List::kEcho2, [&](Tally votes) {
      if (votes.count < quorum) return false;
      next = votes.value;
      advanced = true;
      return true;
    });

    // Condition (1): n-t ECHO1s for two values -> adopt the midpoint.
    if (!advanced) {
      ScaledValue v[2] = {0, 0};
      int found = 0;
      walk(rs.e1, rs.n_e1, round_, List::kEcho1, [&](Tally votes) {
        if (votes.count < quorum) return false;
        v[found++] = votes.value;
        return found == 2;
      });
      if (found == 2) {
        // Two same-granularity dyadics sum to an even scaled number for all
        // rounds < r_max, so the midpoint is exact.
        next = (v[0] + v[1]) / 2;
        advanced = true;
      }
    }

    if (!advanced) return;

    state_value_ = next;
    if (round_ == r_max_) {
      done_ = true;
      round_ = static_cast<std::uint8_t>(r_max_ + 1);
      st_.reset();  // the release invariant: nothing below is read again
      return;
    }
    ++round_;
    begin_round(out);
    // Loop: buffered echoes for the new round may already complete it.
  }
}

ScaledValue BinAaCore::output_scaled() const {
  DELPHI_ASSERT(done_, "BinAA output read before termination");
  return state_value_;
}

double BinAaCore::output() const {
  return static_cast<double>(output_scaled()) / static_cast<double>(scale());
}

}  // namespace delphi::binaa
