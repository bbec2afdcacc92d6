// iqb_chaos — crash/recovery harness for the iqbd scoring daemon.
//
// Repeatedly boots iqbd with a checkpoint state dir, lets it score,
// SIGKILLs it mid-cycle at a randomized (seeded) moment, optionally
// corrupts checkpoint files (truncation, bit flips), restarts, and
// asserts the durability invariants end to end:
//
//   1. never a torn snapshot: every 200 /scores response parses as a
//      complete JSON document with a "regions" array;
//   2. monotone recovery: absent injected corruption, the recovered
//      cycle counter never decreases across kill/restart;
//   3. convergence: after every restart /readyz reaches 200 — first
//      "recovered" (stale checkpoint) when one exists, then "ready"
//      (fresh cycle) — within the boot timeout;
//   4. corruption is contained: a truncated or bit-flipped newest
//      checkpoint is skipped (the daemon falls back to an older
//      generation or starts unready) and never crashes the daemon or
//      serves unparsable scores;
//   5. wipe survival (--wipe-every N with --peer-port): every Nth kill
//      also rm -rf's the state dir — total disk loss. The harness runs
//      a static replication peer, the main daemon pushes checkpoints
//      to it (--replicate-to), and after the wipe the reborn daemon
//      must bootstrap from the peer's replica: /readyz resumes the
//      pre-wipe cycle ordinal sequence instead of restarting at 1.
//
// Exit 0 iff every invariant held across all iterations. This is the
// tool the CI chaos-smoke job runs; it is also useful interactively:
//
//   iqb_chaos --iqbd build/tools/iqbd --records records.csv --iterations 20
//   iqb_chaos --iqbd build/tools/iqbd --records records.csv
//             --peer-port 18991 --wipe-every 3 --iterations 9  (one command)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "iqb/util/fs.hpp"
#include "iqb/util/json.hpp"
#include "iqb/util/rng.hpp"
#include "iqb/util/strings.hpp"
#include "testsupport/http_get.hpp"

namespace {

using iqb::testsupport::http_get;
using iqb::testsupport::HttpResult;

struct ChaosOptions {
  std::string iqbd_path;
  std::string records_path;
  std::string state_dir;
  int iterations = 20;
  std::uint16_t port = 18990;
  std::uint64_t interval_ms = 100;
  std::uint64_t seed = 1;
  int corrupt_every = 5;  ///< Corrupt checkpoints every Nth kill; 0: never.
  int wipe_every = 0;     ///< rm -rf the state dir every Nth kill; 0: never.
  std::uint16_t peer_port = 0;  ///< Spawn a replication peer; 0: none.
  bool keep_state = false;
  double boot_timeout_s = 20.0;
};

constexpr const char* kUsage =
    "usage: iqb_chaos --iqbd PATH --records FILE.csv\n"
    "                 [--state-dir DIR] [--iterations N] [--port N]\n"
    "                 [--interval-ms N] [--seed S] [--corrupt-every N]\n"
    "                 [--wipe-every N] [--peer-port N]\n"
    "                 [--keep-state true]\n"
    "--peer-port spawns a second iqbd as a static replication peer and\n"
    "points the main daemon's --replicate-to at it; --wipe-every N\n"
    "(requires --peer-port) erases the whole state dir on every Nth\n"
    "kill and asserts the daemon bootstraps back from the peer.\n"
    "exit codes: 0 all invariants held, 1 usage error, 2 invariant "
    "violated\n";

bool parse_args(int argc, char** argv, ChaosOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (!iqb::util::starts_with(key, "--") || i + 1 >= argc) return false;
    const std::string value = argv[++i];
    const std::string name = key.substr(2);
    auto as_int = [&](std::int64_t lo, std::int64_t hi, std::int64_t& out) {
      auto parsed = iqb::util::parse_int(value);
      if (!parsed.ok() || parsed.value() < lo || parsed.value() > hi) {
        return false;
      }
      out = parsed.value();
      return true;
    };
    std::int64_t n = 0;
    if (name == "iqbd") {
      options.iqbd_path = value;
    } else if (name == "records") {
      options.records_path = value;
    } else if (name == "state-dir") {
      options.state_dir = value;
    } else if (name == "keep-state") {
      options.keep_state = value == "true";
    } else if (name == "iterations" && as_int(1, 100000, n)) {
      options.iterations = static_cast<int>(n);
    } else if (name == "port" && as_int(1, 65535, n)) {
      options.port = static_cast<std::uint16_t>(n);
    } else if (name == "interval-ms" && as_int(1, 3600000, n)) {
      options.interval_ms = static_cast<std::uint64_t>(n);
    } else if (name == "seed" && as_int(0, INT64_MAX, n)) {
      options.seed = static_cast<std::uint64_t>(n);
    } else if (name == "corrupt-every" && as_int(0, 100000, n)) {
      options.corrupt_every = static_cast<int>(n);
    } else if (name == "wipe-every" && as_int(0, 100000, n)) {
      options.wipe_every = static_cast<int>(n);
    } else if (name == "peer-port" && as_int(1, 65535, n)) {
      options.peer_port = static_cast<std::uint16_t>(n);
    } else {
      return false;
    }
  }
  if (options.wipe_every > 0 && options.peer_port == 0) {
    std::cerr << "--wipe-every needs --peer-port: a wiped daemon can only "
                 "recover from a replica\n";
    return false;
  }
  return !options.iqbd_path.empty() && !options.records_path.empty();
}

/// Spawn an iqbd with the given argv; returns the child pid or -1.
/// The child's stdout/stderr go to `log_path` (appended) so harness
/// output stays readable.
pid_t spawn_daemon(std::vector<std::string> args,
                   const std::string& log_path) {
  // Flush before fork so the child's freopen cannot re-emit buffered
  // harness output into our (possibly piped) stdout.
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: redirect output, exec.
  FILE* log = std::freopen(log_path.c_str(), "a", stderr);
  if (log) std::freopen(log_path.c_str(), "a", stdout);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  std::perror("execv iqbd");
  _exit(127);
}

/// Argv for the daemon under test. With a peer configured it pushes
/// every cycle's checkpoint there and can bootstrap back after a wipe.
std::vector<std::string> main_daemon_args(const ChaosOptions& options) {
  std::vector<std::string> args = {
      options.iqbd_path,
      "--records", options.records_path,
      "--state-dir", options.state_dir,
      "--port", std::to_string(options.port),
      "--interval-ms", std::to_string(options.interval_ms),
      "--poll-ms", "20",
  };
  if (options.peer_port != 0) {
    args.insert(args.end(),
                {"--replicate-to", "127.0.0.1:" + std::to_string(options.peer_port),
                 "--node-id", "chaos"});
  }
  return args;
}

/// Argv for the static replication peer: it exists to serve
/// /checkpointz and store the main daemon's replicas, so its own
/// scoring loop idles on a huge interval.
std::vector<std::string> peer_daemon_args(const ChaosOptions& options,
                                          const std::string& peer_dir) {
  return {
      options.iqbd_path,
      "--records", options.records_path,
      "--state-dir", peer_dir,
      "--port", std::to_string(options.peer_port),
      "--interval-ms", "3600000",
      "--poll-ms", "20",
      "--node-id", "peer",
  };
}

bool process_alive(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == 0;
}

void kill_hard(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

struct ReadyState {
  bool ok = false;
  std::string status;  ///< "recovered" | "ready".
  bool stale = false;
  std::uint64_t cycle = 0;
};

ReadyState poll_readyz(std::uint16_t port, pid_t pid, double timeout_s,
                       const std::string& want_status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  ReadyState state;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!process_alive(pid)) return state;  // daemon died: invariant 4
    const HttpResult response = http_get(port, "/readyz");
    if (response.status == 200) {
      auto parsed = iqb::util::parse_json(response.body);
      if (parsed.ok()) {
        state.status = parsed->get_string("status").value_or("");
        auto stale = parsed->get_bool("stale");
        state.stale = stale.ok() && stale.value();
        auto cycle = parsed->get_number("cycle");
        state.cycle =
            cycle.ok() ? static_cast<std::uint64_t>(cycle.value()) : 0;
        if (want_status.empty() || state.status == want_status) {
          state.ok = true;
          return state;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return state;
}

/// Invariant 1: a served scores document is complete, parsable JSON.
bool scores_intact(std::uint16_t port) {
  const HttpResult response = http_get(port, "/scores");
  if (response.status != 200) return true;  // 503 unready is fine
  auto parsed = iqb::util::parse_json(response.body);
  return parsed.ok() && parsed->contains("regions");
}

/// Newest checkpoint file in the state dir, if any.
std::string newest_checkpoint(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (iqb::util::starts_with(name, "checkpoint-") &&
        iqb::util::ends_with(name, ".ckpt") &&
        entry.path().string() > newest) {
      newest = entry.path().string();
    }
  }
  return newest;
}

/// Alternate truncation and bit-flip corruption on the newest file.
bool corrupt_newest_checkpoint(const std::string& dir, iqb::util::Rng& rng) {
  const std::string target = newest_checkpoint(dir);
  if (target.empty()) return false;
  auto data = iqb::util::fs::read_file(target);
  if (!data.ok() || data->empty()) return false;
  std::string mutated = *data;
  if (rng.next_u64() % 2 == 0) {
    mutated.resize(mutated.size() / 2);  // torn write / truncation
    std::cout << "  corrupting (truncate) "
              << std::filesystem::path(target).filename().string() << "\n";
  } else {
    const std::size_t at =
        static_cast<std::size_t>(rng.next_u64() % mutated.size());
    mutated[at] = static_cast<char>(mutated[at] ^ 0x20);  // bit rot
    std::cout << "  corrupting (bit-flip) "
              << std::filesystem::path(target).filename().string() << "\n";
  }
  std::ofstream out(target, std::ios::binary | std::ios::trunc);
  out << mutated;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  ChaosOptions options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << kUsage;
    return 1;
  }
  if (options.state_dir.empty()) {
    options.state_dir =
        (std::filesystem::temp_directory_path() /
         ("iqb_chaos_state_" + std::to_string(::getpid())))
            .string();
  }
  std::filesystem::create_directories(options.state_dir);
  // The log lives beside (not inside) the state dir: --wipe-every
  // erases the dir wholesale and must not eat the daemon's logs.
  const std::string log_path = options.state_dir + ".iqbd.log";

  // Static replication peer, spawned once and left running across
  // every kill of the main daemon.
  pid_t peer_pid = -1;
  std::string peer_dir;
  if (options.peer_port != 0) {
    peer_dir = options.state_dir + "_peer";
    std::filesystem::create_directories(peer_dir);
    peer_pid = spawn_daemon(peer_daemon_args(options, peer_dir),
                            peer_dir + ".iqbd.log");
    if (peer_pid < 0) {
      std::cerr << "fork failed for peer\n";
      return 2;
    }
    const ReadyState peer_ready =
        poll_readyz(options.peer_port, peer_pid, options.boot_timeout_s, "");
    if (!peer_ready.ok) {
      std::cerr << "replication peer never came up on port "
                << options.peer_port << "\n";
      kill_hard(peer_pid);
      return 2;
    }
    std::cout << "replication peer serving on 127.0.0.1:"
              << options.peer_port << "\n";
  }

  iqb::util::Rng rng(options.seed);
  std::uint64_t max_cycle_seen = 0;  ///< Highest persisted-and-served cycle.
  bool corrupted_since_kill = false;
  bool wiped_since_kill = false;
  int wipes = 0;
  int violations = 0;
  auto violation = [&](const std::string& what) {
    std::cerr << "INVARIANT VIOLATED: " << what << "\n";
    ++violations;
  };

  for (int iteration = 1; iteration <= options.iterations; ++iteration) {
    std::cout << "iteration " << iteration << "/" << options.iterations
              << (corrupted_since_kill ? " (post-corruption)" : "")
              << (wiped_since_kill ? " (post-wipe)" : "") << "\n";
    const pid_t pid = spawn_daemon(main_daemon_args(options), log_path);
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 2;
    }

    // Phase 1: converge to serving. With surviving checkpoints the
    // daemon serves "recovered" immediately; either way it must reach
    // "ready" (a fresh cycle) before the boot timeout.
    const ReadyState recovered =
        poll_readyz(options.port, pid, options.boot_timeout_s, "");
    if (!recovered.ok) {
      violation("daemon never reached a serving /readyz (iteration " +
                std::to_string(iteration) + ")");
      if (process_alive(pid)) kill_hard(pid);
      break;
    }
    if (max_cycle_seen > 0 && !corrupted_since_kill && !wiped_since_kill &&
        recovered.cycle < max_cycle_seen) {
      violation("recovered cycle " + std::to_string(recovered.cycle) +
                " went backwards (previous max " +
                std::to_string(max_cycle_seen) + ")");
    }
    if (!scores_intact(options.port)) {
      violation("/scores served a torn or unparsable document after boot");
    }
    const ReadyState fresh =
        poll_readyz(options.port, pid, options.boot_timeout_s, "ready");
    if (!fresh.ok || fresh.stale) {
      violation("readyz never converged from recovered to fresh");
    } else if (fresh.cycle < recovered.cycle) {
      violation("fresh cycle " + std::to_string(fresh.cycle) +
                " below recovered cycle " + std::to_string(recovered.cycle));
    } else {
      // Invariant 5: a wiped daemon lost every local byte, so resuming
      // the ordinal sequence (instead of restarting at cycle 1) proves
      // it bootstrapped from the peer's replica. The replica may trail
      // the last served cycle by the one in-flight push the kill raced,
      // which the first fresh cycle makes up — hence >= max, not >.
      if (wiped_since_kill && fresh.cycle < max_cycle_seen) {
        violation("post-wipe cycle " + std::to_string(fresh.cycle) +
                  " below pre-wipe max " + std::to_string(max_cycle_seen) +
                  ": peer bootstrap did not happen");
      } else if (wiped_since_kill) {
        std::cout << "  wipe survived: resumed at cycle " << fresh.cycle
                  << " (pre-wipe max " << std::to_string(max_cycle_seen)
                  << ", recovered from "
                  << (recovered.status == "recovered" ? "peer replica"
                                                      : "fresh cycle")
                  << ")\n";
      }
      max_cycle_seen = fresh.cycle;
    }
    corrupted_since_kill = false;
    wiped_since_kill = false;

    // Phase 2: let it score a random while, scraping for torn
    // snapshots, then kill -9 mid-cycle.
    const int scrapes = 2 + static_cast<int>(rng.next_u64() % 4);
    for (int scrape = 0; scrape < scrapes; ++scrape) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::uint64_t>(rng.uniform(10.0, 120.0))));
      if (!scores_intact(options.port)) {
        violation("/scores served a torn document mid-run");
      }
      const ReadyState now = poll_readyz(options.port, pid, 2.0, "");
      if (now.ok && now.status == "ready" && now.cycle > max_cycle_seen) {
        max_cycle_seen = now.cycle;
      }
    }
    kill_hard(pid);

    // Phase 3a: every Nth kill is a kill-AND-wipe — the disk is gone,
    // only the peer's replica survives. Wipe and corruption are
    // mutually exclusive per iteration (nothing left to corrupt).
    if (options.wipe_every > 0 && iteration % options.wipe_every == 0 &&
        iteration != options.iterations) {
      std::error_code ec;
      std::filesystem::remove_all(options.state_dir, ec);
      std::filesystem::create_directories(options.state_dir);
      wiped_since_kill = true;
      ++wipes;
      std::cout << "  wiped state dir (" << options.state_dir << ")\n";
    } else if (options.corrupt_every > 0 &&
               iteration % options.corrupt_every == 0 &&
               iteration != options.iterations) {
      // Phase 3b: occasionally corrupt the newest checkpoint so
      // recovery exercises the skip-and-fall-back path.
      corrupted_since_kill =
          corrupt_newest_checkpoint(options.state_dir, rng);
    }
  }

  std::cout << "chaos run complete: " << options.iterations
            << " kill/restart iterations, " << wipes
            << " state wipes, max cycle " << max_cycle_seen
            << ", violations " << violations << "\n";
  if (peer_pid > 0) kill_hard(peer_pid);
  if (!options.keep_state) {
    std::error_code ec;
    std::filesystem::remove_all(options.state_dir, ec);
    std::filesystem::remove(log_path, ec);
    if (!peer_dir.empty()) {
      std::filesystem::remove_all(peer_dir, ec);
      std::filesystem::remove(peer_dir + ".iqbd.log", ec);
    }
  }
  return violations == 0 ? 0 : 2;
}
