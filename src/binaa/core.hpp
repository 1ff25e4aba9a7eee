#pragma once
/// \file core.hpp
/// BinAA (Algorithm 1 of the paper): approximate agreement for *binary*
/// inputs via iterated weak Binary-Value broadcast, as a pure state machine.
///
/// The machine is transport-agnostic: feeding it echoes produces outgoing
/// echo *actions*, which the standalone wrapper (protocol.hpp) sends as
/// individual messages and Delphi (src/delphi) coalesces into per-level
/// bundles — the paper's Õ(n²) communication optimization.
///
/// Exact arithmetic: round-r state values are dyadic rationals k / 2^(r-1)
/// in [0, 1], stored as integer numerators scaled by 2^r_max. Averaging two
/// round-r values is exact integer math, so the induction "the honest value
/// range at least halves every round" is checkable bit-for-bit, and after
/// r_max = ceil(log2(1/eps)) rounds honest outputs differ by at most
/// eps * 2^r_max scaled units.
///
/// Properties (n > 3t, asynchronous, per paper §II-C):
///  * Termination — every honest node finishes r_max rounds.
///  * Validity    — outputs lie inside the convex hull of honest inputs
///                  (0-relaxed); in particular unanimous input is decided.
///  * eps-Agreement — honest outputs differ by < 2^-r_max.
///
/// State layout. A Delphi node runs dozens of cores per agreement and an
/// oracle mesh runs agreement after agreement, so the quorum state is flat
/// and is given back when the core finishes:
///  * One word pool per core holds every n-bit sender set at a word offset:
///    per round, the ECHO1 seen-once, ECHO1 seen-twice and ECHO2 sender
///    sets, plus one set per tallied ECHO1 value. (An ECHO2 tally needs only
///    a count: the round's ECHO2 sender set already admits each sender once.)
///  * A round record holds its first two ECHO1 tallies, ECHO2 tallies and
///    sent values inline. Honest senders only ever echo a round's two (or
///    fewer) honest state values, so honest runs never outgrow the record.
///  * Further values — only Byzantine senders produce them — spill into one
///    per-core list in arrival order; a round's list is its inline entries
///    followed by its spilled ones, which keeps iteration order, emitted
///    actions and wire bytes identical to per-round vectors. Entries are
///    addressed by index, never by pointer, across anything that may append
///    to the spill list.
///  * The round records, the pool and the spill list live in one block
///    that is allocated when the core is first touched (start or echo); a
///    round's sender sets are carved from the pool when that round is. An
///    untouched or finished core is its narrow parameters, its state value
///    and a null pointer (24 bytes on LP64).
///
/// Release invariant: once done(), a core has freed that block — it holds
/// only its output and round. Every later echo is ignored (on_echo returns
/// on done), so nothing reads the released state.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace delphi::binaa {

/// Scaled dyadic state value (numerator over 2^r_max).
using ScaledValue = std::int64_t;

/// Outgoing echo produced by the state machine; the host turns these into
/// wire messages (standalone) or bundle entries (Delphi).
struct EchoAction {
  std::uint8_t kind = 1;        ///< 1 = ECHO1, 2 = ECHO2
  std::uint32_t round = 1;      ///< 1-based round index
  ScaledValue value = 0;        ///< scaled dyadic value
};

/// The BinAA state machine for one instance at one node.
class BinAaCore {
 public:
  struct Config {
    /// At most 65535 (stored in 16 bits).
    std::size_t n = 4;
    std::size_t t = 1;
    /// Number of averaging rounds r_M = ceil(log2(1/eps')); also fixes the
    /// value scale 2^r_max. Must be in [1, 62].
    std::uint32_t r_max = 10;
  };

  explicit BinAaCore(const Config& cfg);

  /// Scale factor: all values are numerators over this power of two.
  ScaledValue scale() const noexcept { return ScaledValue{1} << r_max_; }

  /// Begin with a binary input (false -> 0, true -> scale()). Appends the
  /// initial round-1 ECHO1 to `out`. The host must loop our own echoes back
  /// through on_echo (broadcast-to-self semantics).
  void start(bool input, std::vector<EchoAction>& out);

  /// True once start() ran.
  bool started() const noexcept { return started_; }

  /// Feed one echo received from `from` (possibly ourselves). Invalid values
  /// (non-dyadic for the round, out of range) are ignored — Byzantine noise.
  /// Outgoing echoes triggered by this delivery are appended to `out`.
  void on_echo(std::uint8_t kind, std::uint32_t round, ScaledValue value,
               NodeId from, std::vector<EchoAction>& out);

  /// Round currently being executed (1-based); r_max+1 once finished.
  std::uint32_t current_round() const noexcept { return round_; }

  /// True after r_max rounds completed.
  bool done() const noexcept { return done_; }

  /// Final scaled output (valid once done()).
  ScaledValue output_scaled() const;

  /// Final output as a real in [0, 1].
  double output() const;

 private:
  /// Inline list entries per round record (see the file comment).
  static constexpr std::uint8_t kInline = 2;

  /// Which per-round list a spilled entry extends.
  enum class List : std::uint8_t { kEcho1, kEcho2, kSent };

  /// Votes for one value: the pool offset of its sender set (ECHO1 only)
  /// and the number of senders counted.
  struct Tally {
    ScaledValue value = 0;
    std::uint32_t senders = 0;
    std::uint32_t count = 0;
  };

  /// A list entry past its round's inline slots (a sent value uses only
  /// tally.value).
  struct Spill {
    Tally tally;
    std::uint32_t round = 0;
    List list = List::kEcho1;
  };

  struct Round {
    Tally e1[kInline];         ///< first ECHO1 values, in arrival order
    Tally e2[kInline];         ///< first ECHO2 values, in arrival order
    ScaledValue sent[kInline] = {};  ///< values we ECHO1'd (initial + amplified)
    std::uint32_t e1_seen_once = 0;   ///< senders with >= 1 counted ECHO1
    std::uint32_t e1_seen_twice = 0;  ///< senders with 2 counted ECHO1s
    std::uint32_t e2_senders = 0;     ///< senders with a counted ECHO2
    std::uint8_t n_e1 = 0;
    std::uint8_t n_e2 = 0;
    std::uint8_t n_sent = 0;
    bool e2_sent = false;
    bool initialized = false;
  };

  /// Granularity of round r values: scale >> (r-1).
  ScaledValue granularity(std::uint32_t round) const {
    return scale() >> (round - 1);
  }
  bool valid_value(std::uint32_t round, ScaledValue v) const;

  /// Everything a running core tallies; allocated at first touch, freed at
  /// done().
  struct State {
    std::vector<Round> rounds;  ///< index r-1
    std::vector<std::uint64_t> pool;
    std::vector<Spill> spill;
  };

  /// Fast-path inline: this is hit for every echo of every bundle; creating
  /// records and sets stays out of line.
  Round& round_state(std::uint32_t r) {
    DELPHI_ASSERT(r >= 1 && r <= r_max_, "BinAA round out of range");
    if (!st_) alloc_state();
    Round& rs = st_->rounds[r - 1];
    if (!rs.initialized) init_round(rs);
    return rs;
  }
  void alloc_state();
  void init_round(Round& rs);

  /// Words per sender set: ceil(n / 64).
  std::uint32_t set_words() const noexcept { return (n_ + 63u) / 64u; }

  // Sender sets in the pool, addressed by word offset (it may reallocate).
  std::uint32_t new_set();
  bool set_contains(std::uint32_t set, NodeId id) const {
    return (st_->pool[set + id / 64] >> (id % 64)) & 1;
  }
  bool set_insert(std::uint32_t set, NodeId id) {
    std::uint64_t& w = st_->pool[set + id / 64];
    const std::uint64_t mask = std::uint64_t{1} << (id % 64);
    if (w & mask) return false;
    w |= mask;
    return true;
  }

  /// The spilled entry for `v` in a round's list, or nullptr. Pointers
  /// into the spill list are valid until its next append.
  Spill* find_spill(std::uint32_t round, List list, ScaledValue v);
  /// The tally for `v` in a round's ECHO1 or ECHO2 list, or nullptr.
  Tally* find_tally(Tally* inl, std::uint8_t used, std::uint32_t round,
                    List list, ScaledValue v);
  /// Append a tally for `v` (with a fresh sender set when `with_set`).
  Tally& add_tally(Tally* inl, std::uint8_t& used, std::uint32_t round,
                   List list, ScaledValue v, bool with_set);
  /// Visit a round's ECHO1 or ECHO2 tallies in arrival order until `fn`
  /// returns true. `fn` gets a copy and may append to the spill list: the
  /// walk re-indexes it on every step.
  template <typename Fn>
  void walk(const Tally* inl, std::uint8_t used, std::uint32_t round,
            List list, Fn&& fn) {
    for (std::uint8_t i = 0; i < used; ++i) {
      if (fn(Tally{inl[i]})) return;
    }
    if (used < kInline) return;  // spilling starts once the slots are full
    const std::vector<Spill>& spill = st_->spill;
    for (std::size_t j = 0; j < spill.size(); ++j) {
      if (spill[j].round == round && spill[j].list == list &&
          fn(Tally{spill[j].tally})) {
        return;
      }
    }
  }
  /// Record that we ECHO1'd `v` in `round`; false if we already had.
  bool note_sent(Round& rs, std::uint32_t round, ScaledValue v);

  void run_triggers(std::uint32_t round, std::vector<EchoAction>& out);
  void try_advance(std::vector<EchoAction>& out);
  void begin_round(std::vector<EchoAction>& out);

  ScaledValue state_value_ = 0;  // b_{i, round_}
  std::unique_ptr<State> st_;    // null until first touched and once done
  std::uint16_t n_;
  std::uint16_t t_;
  std::uint8_t r_max_;
  std::uint8_t round_ = 0;  // 0 = not started
  bool started_ = false;
  bool done_ = false;
};

}  // namespace delphi::binaa
