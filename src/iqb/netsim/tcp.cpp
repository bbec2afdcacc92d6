#include "iqb/netsim/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace iqb::netsim {

util::Mbps TcpStats::goodput_between(SimTime from, SimTime to) const noexcept {
  if (throughput_samples.size() < 2 || to <= from) return util::Mbps(0.0);
  auto bytes_at = [this](SimTime t) -> double {
    // Linear interpolation over the snapshot series.
    if (t <= throughput_samples.front().time) {
      return static_cast<double>(throughput_samples.front().bytes_acked);
    }
    if (t >= throughput_samples.back().time) {
      return static_cast<double>(throughput_samples.back().bytes_acked);
    }
    for (std::size_t i = 1; i < throughput_samples.size(); ++i) {
      if (throughput_samples[i].time >= t) {
        const auto& a = throughput_samples[i - 1];
        const auto& b = throughput_samples[i];
        const double span = b.time - a.time;
        const double frac = span > 0.0 ? (t - a.time) / span : 0.0;
        return static_cast<double>(a.bytes_acked) +
               frac * static_cast<double>(b.bytes_acked - a.bytes_acked);
      }
    }
    return static_cast<double>(throughput_samples.back().bytes_acked);
  };
  const double lo = std::max(from, throughput_samples.front().time);
  const double hi = std::min(to, throughput_samples.back().time);
  if (hi <= lo) return util::Mbps(0.0);
  return util::Mbps::from_bytes_over_seconds(bytes_at(hi) - bytes_at(lo), hi - lo);
}

TcpFlow::TcpFlow(Simulator& sim, Path data_path, Path ack_path, TcpConfig config,
                 std::uint64_t flow_id)
    : sim_(sim),
      data_path_(std::move(data_path)),
      ack_path_(std::move(ack_path)),
      config_(config),
      flow_id_(flow_id) {
  assert(!data_path_.empty() && !ack_path_.empty());
  cwnd_ = config_.initial_cwnd_segments;
  ssthresh_ = config_.initial_ssthresh;
  if (config_.max_bytes > 0) {
    total_segments_ =
        (config_.max_bytes + config_.mss_bytes - 1) / config_.mss_bytes;
  }
}

void TcpFlow::start(CompletionFn on_complete) {
  assert(!started_ && "TcpFlow::start called twice");
  started_ = true;
  on_complete_ = std::move(on_complete);
  stats_.started_at = sim_.now();
  stats_.throughput_samples.push_back({sim_.now(), 0, cwnd_, 0.0});
  if (config_.sample_interval_s > 0.0) {
    sample_timer_ = sim_.schedule_in(config_.sample_interval_s,
                                     [this] { take_throughput_sample(); });
  }
  if (config_.max_duration_s > 0.0) {
    deadline_timer_ =
        sim_.schedule_in(config_.max_duration_s, [this] {
          deadline_passed_ = true;
          finish();
        });
  }
  try_send();
}

void TcpFlow::take_throughput_sample() {
  if (finished_) return;
  stats_.throughput_samples.push_back(
      {sim_.now(), stats_.bytes_acked, cwnd_, stats_.smoothed_rtt_ms});
  sample_timer_ = sim_.schedule_in(config_.sample_interval_s,
                                   [this] { take_throughput_sample(); });
}

void TcpFlow::try_send() {
  if (finished_ || deadline_passed_) return;
  const auto window = static_cast<std::uint64_t>(std::max(1.0, cwnd_));
  while (snd_nxt_ - snd_una_ < window &&
         (total_segments_ == 0 || snd_nxt_ < total_segments_)) {
    send_segment(snd_nxt_, /*retransmit=*/false);
    ++snd_nxt_;
  }
}

void TcpFlow::send_segment(std::uint64_t seq, bool retransmit) {
  Packet segment;
  segment.flow_id = flow_id_;
  segment.seq = seq;
  segment.kind = PacketKind::kData;
  segment.size_bytes = config_.mss_bytes + kTcpHeaderBytes;
  segment.sent_at = sim_.now();
  segment.retransmit = retransmit;

  ++stats_.segments_sent;
  if (retransmit) ++stats_.segments_retransmitted;

  send_along(data_path_, segment,
             [this](const Packet& delivered) { on_data_arrival(delivered); });

  if (!rto_armed_) arm_rto();
}

void TcpFlow::on_data_arrival(const Packet& segment) {
  if (finished_) return;
  // Receiver logic: cumulative ACK with out-of-order buffering.
  if (segment.seq == rcv_next_) {
    ++rcv_next_;
    auto it = rcv_out_of_order_.begin();
    while (it != rcv_out_of_order_.end() && *it == rcv_next_) {
      ++rcv_next_;
      it = rcv_out_of_order_.erase(it);
    }
  } else if (segment.seq > rcv_next_) {
    rcv_out_of_order_.insert(segment.seq);
  }  // segment.seq < rcv_next_: duplicate delivery, still ACK.

  Packet ack;
  ack.flow_id = flow_id_;
  ack.kind = PacketKind::kAck;
  ack.ack = rcv_next_;
  ack.size_bytes = kTcpHeaderBytes;
  ack.sent_at = sim_.now();
  // Timestamp echo: carry the triggering segment's send stamp back so
  // the sender samples true RTTs even behind a cumulative-ACK hole.
  ack.echo_sent_at = segment.sent_at;
  ack.echo_retransmit = segment.retransmit;
  // SACK blocks: the lowest out-of-order runs above rcv_next_.
  auto it = rcv_out_of_order_.begin();
  while (it != rcv_out_of_order_.end() &&
         ack.sack_count < Packet::kMaxSackRanges) {
    std::uint64_t begin = *it;
    std::uint64_t end = begin + 1;
    ++it;
    while (it != rcv_out_of_order_.end() && *it == end) {
      ++end;
      ++it;
    }
    ack.sack[static_cast<std::size_t>(ack.sack_count++)] = {begin, end};
  }
  send_along(ack_path_, ack,
             [this](const Packet& delivered) { on_ack_arrival(delivered); });
}

void TcpFlow::on_ack_arrival(const Packet& ack) {
  if (finished_) return;
  // Timestamp-echo RTT sample on every ACK (including duplicates),
  // excluding echoes of retransmitted segments (Karn's algorithm).
  if (!ack.echo_retransmit && ack.echo_sent_at > 0.0) {
    sample_rtt(sim_.now() - ack.echo_sent_at);
  }
  if (ack.ack > snd_una_) {
    const std::uint64_t newly = ack.ack - snd_una_;
    snd_una_ = ack.ack;
    stats_.bytes_acked += newly * config_.mss_bytes;
    rto_backoff_ = 1.0;

    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        // Full recovery: deflate to ssthresh (NewReno).
        in_recovery_ = false;
        dup_acks_ = 0;
        cwnd_ = ssthresh_;
      } else {
        // Partial ACK: retransmit the leading hole, stay in recovery.
        // Once per RTT, rewind the repair cursor to the cumulative ACK:
        // retransmissions themselves can be lost in the still-congested
        // queue, and a monotone cursor would never retry them (RACK's
        // reorder timer serves this purpose in real stacks).
        const double rtt_s = have_rtt_ ? srtt_s_ : 0.05;
        if (sim_.now() - sack_cursor_reset_at_ >= rtt_s) {
          sack_cursor_ = snd_una_ + 1;
          sack_cursor_reset_at_ = sim_.now();
        }
        sack_cursor_ = std::max(sack_cursor_, snd_una_ + 1);
        send_segment(snd_una_, /*retransmit=*/true);
        cwnd_ = std::max(1.0, cwnd_ - static_cast<double>(newly) + 1.0);
        if (ack.echo_retransmit && ack.sack_count == 0) {
          // Tail-loss batch repair (RACK-flavoured): this partial ACK
          // was produced by one of our retransmissions and the
          // receiver holds no out-of-order data, so the remaining
          // hole is a contiguous run. SACK blocks cannot guide repair
          // (there are none) and one-segment-per-RTT crawl would take
          // hundreds of RTTs; retransmit a cwnd-bounded batch ahead
          // of the cumulative ACK instead.
          std::uint64_t budget = std::min<std::uint64_t>(
              32, static_cast<std::uint64_t>(std::max(1.0, cwnd_ / 4.0)));
          while (budget > 0 && sack_cursor_ < recover_ &&
                 sack_cursor_ < snd_nxt_) {
            send_segment(sack_cursor_, /*retransmit=*/true);
            ++sack_cursor_;
            --budget;
          }
        } else {
          sack_repair(ack);
        }
      }
    } else {
      dup_acks_ = 0;
      on_new_ack(newly);
    }

    if (snd_una_ == snd_nxt_) {
      rto_armed_ = false;
      sim_.cancel(rto_timer_);
      if (total_segments_ != 0 && snd_una_ >= total_segments_) {
        finish();
        return;
      }
    } else {
      arm_rto();  // restart for the next outstanding segment
    }
    try_send();
  } else if (ack.ack == snd_una_ && snd_nxt_ > snd_una_) {
    on_duplicate_ack(ack);
  }
}

void TcpFlow::on_new_ack(std::uint64_t newly_acked_segments) {
  if (cwnd_ < ssthresh_) {
    // Slow start: one segment per ACKed segment (exponential per RTT).
    cwnd_ += static_cast<double>(newly_acked_segments);
    if (cwnd_ > ssthresh_) cwnd_ = ssthresh_;  // precise handoff
  } else {
    congestion_avoidance_ack(newly_acked_segments);
  }
  // Receive-window equivalent: real peers advertise a finite buffer.
  cwnd_ = std::min(cwnd_, config_.max_cwnd_segments);
}

void TcpFlow::congestion_avoidance_ack(std::uint64_t newly_acked) {
  switch (config_.algo) {
    case CongestionAlgo::kReno:
      // Additive increase: ~1 segment per RTT.
      cwnd_ += static_cast<double>(newly_acked) / cwnd_;
      break;
    case CongestionAlgo::kCubic:
      cubic_update();
      break;
  }
}

void TcpFlow::on_duplicate_ack(const Packet& ack) {
  ++dup_acks_;
  if (in_recovery_) {
    // Window inflation keeps the pipe full while holes persist, but is
    // bounded: unbounded inflation (one segment per dupack forever)
    // diverges during long burst-loss recoveries.
    cwnd_ = std::min(cwnd_ + 1.0, ssthresh_ * 2.0);
    sack_repair(ack);
    try_send();
    return;
  }
  if (dup_acks_ == 3) {
    enter_recovery();
    sack_repair(ack);
  }
}

void TcpFlow::sack_repair(const Packet& ack) {
  // Retransmit up to kRepairBudget of the lowest holes the SACK blocks
  // expose, tracked by a monotone cursor so each hole is retransmitted
  // once per recovery epoch (RTO is the backstop for re-lost repairs).
  if (!in_recovery_ || ack.sack_count == 0) return;
  int budget = 3;
  sack_cursor_ = std::max(sack_cursor_, snd_una_);
  for (int i = 0; i < ack.sack_count && budget > 0; ++i) {
    const auto& range = ack.sack[static_cast<std::size_t>(i)];
    while (sack_cursor_ < range.begin && budget > 0) {
      if (sack_cursor_ >= snd_nxt_) return;
      send_segment(sack_cursor_, /*retransmit=*/true);
      ++sack_cursor_;
      --budget;
    }
    sack_cursor_ = std::max(sack_cursor_, range.end);
  }
}

void TcpFlow::enter_recovery() {
  ++stats_.fast_retransmits;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  sack_cursor_ = snd_una_ + 1;  // snd_una_ itself is retransmitted below
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  switch (config_.algo) {
    case CongestionAlgo::kReno:
      ssthresh_ = std::max(flight / 2.0, 2.0);
      cwnd_ = ssthresh_ + 3.0;
      break;
    case CongestionAlgo::kCubic:
      cubic_on_congestion();
      break;
  }
  send_segment(snd_una_, /*retransmit=*/true);
}

void TcpFlow::cubic_on_congestion() {
  cubic_w_max_ = cwnd_;
  cwnd_ = std::max(cwnd_ * config_.cubic_beta, 2.0);
  ssthresh_ = cwnd_;
  cubic_k_ = std::cbrt(cubic_w_max_ * (1.0 - config_.cubic_beta) /
                       config_.cubic_c);
  cubic_epoch_start_ = sim_.now();
}

void TcpFlow::cubic_update() {
  if (cubic_epoch_start_ < 0.0) {
    // First congestion-avoidance epoch without a prior loss event.
    cubic_epoch_start_ = sim_.now();
    cubic_w_max_ = cwnd_;
    cubic_k_ = 0.0;
  }
  const double t = sim_.now() - cubic_epoch_start_;
  const double delta = t - cubic_k_;
  const double target =
      config_.cubic_c * delta * delta * delta + cubic_w_max_;
  if (target > cwnd_) {
    cwnd_ += (target - cwnd_) / cwnd_;
  } else {
    // Below the curve: probe conservatively (RFC 8312 "TCP friendly"
    // region approximated by slow Reno-like growth).
    cwnd_ += 0.05 / cwnd_;
  }
}

void TcpFlow::sample_rtt(double rtt_s) {
  if (stats_.min_rtt_ms == 0.0 || rtt_s * 1e3 < stats_.min_rtt_ms) {
    stats_.min_rtt_ms = rtt_s * 1e3;
  }
  // HyStart delay-increase heuristic: while in slow start, exit when
  // the RTT has grown past min_rtt by a clamped fraction of min_rtt —
  // the queue is filling, so the pipe is found.
  if (config_.hystart && !in_recovery_ && cwnd_ < ssthresh_) {
    const double min_rtt_s = stats_.min_rtt_ms / 1e3;
    const double threshold = std::clamp(min_rtt_s / 8.0,
                                        config_.hystart_delay_min_s,
                                        config_.hystart_delay_max_s);
    if (rtt_s - min_rtt_s > threshold) {
      ssthresh_ = cwnd_;
      if (config_.algo == CongestionAlgo::kCubic) {
        // Start the cubic epoch from the discovered operating point.
        cubic_epoch_start_ = -1.0;
      }
    }
  }
  if (!have_rtt_) {
    srtt_s_ = rtt_s;
    rttvar_s_ = rtt_s / 2.0;
    have_rtt_ = true;
  } else {
    rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - rtt_s);
    srtt_s_ = 0.875 * srtt_s_ + 0.125 * rtt_s;
  }
  stats_.smoothed_rtt_ms = srtt_s_ * 1e3;
}

void TcpFlow::arm_rto() {
  sim_.cancel(rto_timer_);
  double rto = have_rtt_ ? srtt_s_ + 4.0 * rttvar_s_ : 1.0;
  rto = std::clamp(rto * rto_backoff_, config_.min_rto_s, config_.max_rto_s);
  rto_armed_ = true;
  rto_timer_ = sim_.schedule_in(rto, [this] { on_rto(); });
}

void TcpFlow::on_rto() {
  rto_armed_ = false;
  if (finished_ || snd_una_ == snd_nxt_) return;
  ++stats_.timeouts;
  // Classic timeout response: collapse to one segment, re-enter slow
  // start, exponential timer backoff.
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_acks_ = 0;
  in_recovery_ = false;
  if (config_.algo == CongestionAlgo::kCubic) {
    cubic_epoch_start_ = -1.0;  // reset the cubic epoch
  }
  rto_backoff_ = std::min(rto_backoff_ * 2.0, 64.0);
  send_segment(snd_una_, /*retransmit=*/true);
  arm_rto();
}

void TcpFlow::finish() {
  if (finished_) return;
  finished_ = true;
  stats_.finished_at = sim_.now();
  stats_.final_cwnd_segments = cwnd_;
  stats_.throughput_samples.push_back(
      {sim_.now(), stats_.bytes_acked, cwnd_, stats_.smoothed_rtt_ms});
  sim_.cancel(rto_timer_);
  sim_.cancel(sample_timer_);
  sim_.cancel(deadline_timer_);
  if (on_complete_) {
    // Move the callback out first: it may destroy this flow's owner.
    CompletionFn cb = std::move(on_complete_);
    cb(stats_);
  }
}

}  // namespace iqb::netsim
