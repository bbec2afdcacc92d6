// Segment-level TCP model with Reno and CUBIC congestion control.
//
// This is not a byte-exact TCP implementation; it is the standard
// simulation-grade abstraction (comparable to ns-2's Agent/TCP): data
// flows one way in MSS-sized segments, cumulative ACKs flow back,
// loss is detected by triple duplicate ACKs (fast retransmit, NewReno
// partial-ACK recovery, SACK-guided hole repair per RFC 2018/6675) or
// by RTO, RTT is sampled via timestamp echo (RFC 7323), and the
// congestion window evolves per Reno (RFC 5681/6582) or CUBIC
// (RFC 8312) with HyStart. Omitted on purpose: delayed ACKs, Nagle,
// ECN, byte-granular sequencing. These do not change the phenomena
// IQB measures — throughput ramp-up, loss response, self-induced
// queueing delay.
//
// Lifetime: a TcpFlow must outlive the Simulator events it schedules
// and the packets in flight on its paths (they point at the flow's own
// copies of the paths). Run the simulator past the flow's finish, or
// never run it again, before destroying the flow. Every ACK that
// advances the window cancels the retransmission timer and schedules
// a new one; Simulator::cancel() removes the old event in O(log n).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "iqb/netsim/network.hpp"
#include "iqb/netsim/packet.hpp"
#include "iqb/netsim/sim.hpp"
#include "iqb/util/units.hpp"

namespace iqb::netsim {

enum class CongestionAlgo { kReno, kCubic };

struct TcpConfig {
  CongestionAlgo algo = CongestionAlgo::kReno;
  std::uint32_t mss_bytes = kDefaultMssBytes;
  double initial_cwnd_segments = 10.0;   // RFC 6928 IW10
  double initial_ssthresh = 1e12;        // effectively: slow start until loss
  /// Receive-window equivalent: cwnd never exceeds this many segments
  /// (default ~12 MB at the default MSS, a typical tuned rmem cap).
  double max_cwnd_segments = 8192.0;
  double min_rto_s = 0.2;
  double max_rto_s = 60.0;

  /// Stop after this many payload bytes are ACKed (0 = no byte limit).
  std::uint64_t max_bytes = 0;
  /// Stop sending new data after this long (0 = no time limit). The
  /// flow finishes immediately at the deadline; goodput is computed
  /// from bytes ACKed within the window, like a fixed-duration
  /// speed test.
  SimTime max_duration_s = 0.0;

  /// If > 0, record (time, bytes_acked) snapshots at this interval so
  /// clients can compute windowed rates (ramp-up discard etc.).
  SimTime sample_interval_s = 0.1;

  // CUBIC parameters (RFC 8312 defaults).
  double cubic_c = 0.4;
  double cubic_beta = 0.7;

  /// HyStart-style delay-based slow-start exit (on by default, as in
  /// Linux). Without SACK, a full slow-start overshoot into a deep
  /// buffer creates thousands of holes that NewReno then repairs one
  /// RTT each — a pathology real stacks avoid; HyStart exits slow
  /// start when queueing delay builds instead.
  bool hystart = true;
  double hystart_delay_min_s = 0.004;
  double hystart_delay_max_s = 0.016;
};

struct ThroughputSample {
  SimTime time = 0.0;
  std::uint64_t bytes_acked = 0;
  double cwnd_segments = 0.0;   ///< Congestion window at sample time.
  double smoothed_rtt_ms = 0.0; ///< Smoothed RTT at sample time (0 if none).
};

struct TcpStats {
  SimTime started_at = 0.0;
  SimTime finished_at = 0.0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t segments_sent = 0;          ///< Includes retransmissions.
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  double min_rtt_ms = 0.0;
  double smoothed_rtt_ms = 0.0;
  double final_cwnd_segments = 0.0;
  std::vector<ThroughputSample> throughput_samples;

  /// Average goodput over the flow's lifetime.
  util::Mbps goodput() const noexcept {
    const double elapsed = finished_at - started_at;
    return util::Mbps::from_bytes_over_seconds(
        static_cast<double>(bytes_acked), elapsed);
  }

  /// Retransmitted fraction of all sent segments — the loss signal a
  /// TCP-based test (like NDT's TCP_INFO) actually observes.
  double retransmit_rate() const noexcept {
    return segments_sent == 0
               ? 0.0
               : static_cast<double>(segments_retransmitted) /
                     static_cast<double>(segments_sent);
  }

  /// Goodput between two times, from the snapshot series (clamps to
  /// the recorded range). Used for ramp-up discard.
  util::Mbps goodput_between(SimTime from, SimTime to) const noexcept;
};

class TcpFlow {
 public:
  using CompletionFn = std::function<void(const TcpStats&)>;

  /// data_path carries data segments sender->receiver; ack_path
  /// carries ACKs back. Both must be non-empty.
  TcpFlow(Simulator& sim, Path data_path, Path ack_path, TcpConfig config,
          std::uint64_t flow_id);

  TcpFlow(const TcpFlow&) = delete;
  TcpFlow& operator=(const TcpFlow&) = delete;

  /// Begin transmitting. on_complete (optional) fires once, when the
  /// byte limit is reached or the duration expires.
  void start(CompletionFn on_complete = nullptr);

  bool finished() const noexcept { return finished_; }
  const TcpStats& stats() const noexcept { return stats_; }
  double cwnd_segments() const noexcept { return cwnd_; }

 private:
  // --- sender ---
  void try_send();
  void send_segment(std::uint64_t seq, bool retransmit);
  void on_ack_arrival(const Packet& ack);
  void on_new_ack(std::uint64_t newly_acked_segments);
  void on_duplicate_ack(const Packet& ack);
  void enter_recovery();
  void sack_repair(const Packet& ack);
  void congestion_avoidance_ack(std::uint64_t newly_acked);
  void cubic_on_congestion();
  void cubic_update();
  void arm_rto();
  void on_rto();
  void sample_rtt(double rtt_s);
  void take_throughput_sample();
  void finish();

  // --- receiver (modelled in-process; emits cumulative ACKs) ---
  void on_data_arrival(const Packet& segment);

  Simulator& sim_;
  Path data_path_;
  Path ack_path_;
  TcpConfig config_;
  std::uint64_t flow_id_;

  // Sender state. Sequence numbers count whole segments.
  std::uint64_t snd_una_ = 0;  ///< Oldest unacked segment.
  std::uint64_t snd_nxt_ = 0;  ///< Next segment to send.
  double cwnd_ = 0.0;          ///< Congestion window, in segments.
  double ssthresh_ = 0.0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;  ///< NewReno recovery point.
  std::uint64_t sack_cursor_ = 0;  ///< Next hole eligible for SACK repair.
  SimTime sack_cursor_reset_at_ = 0.0;  ///< Last re-repair pass (RACK-ish).
  std::uint64_t total_segments_ = 0;  ///< 0 = unbounded.
  bool deadline_passed_ = false;

  // RTO state (Jacobson/Karels).
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  bool have_rtt_ = false;
  double rto_backoff_ = 1.0;
  TimerId rto_timer_ = 0;
  bool rto_armed_ = false;

  // CUBIC state.
  double cubic_w_max_ = 0.0;
  double cubic_k_ = 0.0;
  SimTime cubic_epoch_start_ = -1.0;

  // Receiver state.
  std::uint64_t rcv_next_ = 0;
  std::set<std::uint64_t> rcv_out_of_order_;

  TcpStats stats_;
  CompletionFn on_complete_;
  bool started_ = false;
  bool finished_ = false;
  TimerId sample_timer_ = 0;
  TimerId deadline_timer_ = 0;
};

}  // namespace iqb::netsim
