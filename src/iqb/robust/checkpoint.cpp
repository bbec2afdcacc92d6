#include "iqb/robust/checkpoint.hpp"

#include <algorithm>
#include <cstdio>

#include "iqb/util/fs.hpp"
#include "iqb/util/json.hpp"
#include "iqb/util/strings.hpp"

namespace iqb::robust {

namespace {

constexpr const char* kMagic = "IQBCKPT";
constexpr const char* kExtension = ".ckpt";

util::Error reject(const std::string& reason) {
  return util::make_error(util::ErrorCode::kParseError, reason);
}

std::string crc_hex(std::uint32_t crc) {
  char buffer[9];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return buffer;
}

/// Zero-padded so lexicographic filename order == cycle order.
std::string cycle_file_name(std::uint64_t cycle) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "checkpoint-%020llu",
                static_cast<unsigned long long>(cycle));
  return std::string(buffer) + kExtension;
}

std::uint64_t number_or_zero(const util::JsonValue& object,
                             std::string_view key) {
  auto value = object.get_number(key);
  if (!value.ok() || value.value() < 0.0) return 0;
  return static_cast<std::uint64_t>(value.value());
}

}  // namespace

std::string Checkpoint::encode() const {
  // Members in key order, streamed: the scores document is escaped
  // once, straight into the body.
  std::string body;
  body.reserve(scores_json.size() + scores_json.size() / 4 + 256);
  util::JsonWriter writer(body);
  writer.begin_object();
  writer.key("cycle").value(static_cast<std::int64_t>(cycle));
  writer.key("cycles_attempted")
      .value(static_cast<std::int64_t>(cycles_attempted));
  writer.key("cycles_failed").value(static_cast<std::int64_t>(cycles_failed));
  writer.key("scores_json").value(scores_json);
  writer.key("tier_c").value(tier_c);
  writer.key("tier_c_regions").begin_array();
  for (const std::string& region : tier_c_regions) writer.value(region);
  writer.end_array();
  writer.key("trace_id").value(trace_id);
  writer.end_object();

  std::string out = kMagic;
  out.reserve(body.size() + 64);
  out += ' ';
  out += std::to_string(kCheckpointVersion);
  out += ' ';
  out += crc_hex(util::fs::crc32(body));
  out += ' ';
  out += std::to_string(body.size());
  out += '\n';
  out += body;
  return out;
}

util::Result<Checkpoint> Checkpoint::decode(std::string_view data) {
  const std::size_t header_end = data.find('\n');
  if (header_end == std::string_view::npos) {
    return reject("missing header line");
  }
  const std::string header(data.substr(0, header_end));
  const std::vector<std::string> fields = util::split(header, ' ');
  if (fields.size() != 4 || fields[0] != kMagic) {
    return reject("bad header magic");
  }
  auto version = util::parse_int(fields[1]);
  if (!version.ok() || version.value() < 0) {
    return reject("bad header version field");
  }
  if (static_cast<std::uint32_t>(version.value()) != kCheckpointVersion) {
    return reject("unsupported version " + fields[1]);
  }
  auto declared_size = util::parse_int(fields[3]);
  if (!declared_size.ok() || declared_size.value() < 0) {
    return reject("bad header size field");
  }

  const std::string_view payload = data.substr(header_end + 1);
  if (payload.size() <
      static_cast<std::size_t>(declared_size.value())) {
    return reject("truncated payload (" + std::to_string(payload.size()) +
                  " of " + fields[3] + " bytes)");
  }
  if (payload.size() > static_cast<std::size_t>(declared_size.value())) {
    return reject("trailing bytes after payload");
  }
  const std::string expected_crc = crc_hex(util::fs::crc32(payload));
  if (expected_crc != fields[2]) {
    return reject("crc mismatch (header " + fields[2] + ", payload " +
                  expected_crc + ")");
  }

  auto parsed = util::parse_json(payload);
  if (!parsed.ok()) {
    return reject("payload is not valid JSON: " + parsed.error().message);
  }
  Checkpoint checkpoint;
  checkpoint.cycle = number_or_zero(*parsed, "cycle");
  checkpoint.cycles_attempted = number_or_zero(*parsed, "cycles_attempted");
  checkpoint.cycles_failed = number_or_zero(*parsed, "cycles_failed");
  if (const util::JsonValue* trace = parsed->find("trace_id");
      trace && trace->is_string()) {
    checkpoint.trace_id = trace->as_string();
  }
  const util::JsonValue* scores = parsed->find("scores_json");
  if (!scores || !scores->is_string()) {
    return reject("payload missing scores_json");
  }
  checkpoint.scores_json = scores->as_string();
  if (const util::JsonValue* tier_c = parsed->find("tier_c");
      tier_c && tier_c->is_bool()) {
    checkpoint.tier_c = tier_c->as_bool();
  }
  if (const util::JsonValue* regions = parsed->find("tier_c_regions");
      regions && regions->is_array()) {
    for (const util::JsonValue& region : regions->as_array()) {
      if (region.is_string()) {
        checkpoint.tier_c_regions.push_back(region.as_string());
      }
    }
  }
  if (checkpoint.cycle == 0) return reject("payload missing cycle");
  return checkpoint;
}

CheckpointStore::CheckpointStore(std::filesystem::path dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {}

util::Result<void> CheckpointStore::prepare() const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return util::make_error(util::ErrorCode::kIoError,
                            "cannot create state dir '" + dir_.string() +
                                "': " + ec.message());
  }
  return {};
}

std::filesystem::path CheckpointStore::path_for_cycle(
    std::uint64_t cycle) const {
  return dir_ / cycle_file_name(cycle);
}

util::Result<void> CheckpointStore::save(const Checkpoint& checkpoint) const {
  if (auto prepared = prepare(); !prepared.ok()) return prepared;
  auto written = util::fs::atomic_write(path_for_cycle(checkpoint.cycle),
                                        checkpoint.encode());
  if (!written.ok()) return written.with_context("saving checkpoint");

  // Prune oldest generations beyond the keep bound. Best-effort: a
  // prune failure never fails the save that preserved the new state.
  auto pruned = prune();
  (void)pruned;
  return {};
}

util::Result<void> CheckpointStore::prune() const {
  std::error_code ec;
  // A store that was never prepared (or was wiped) holds nothing to
  // prune; only a directory that exists but cannot be read is an error.
  if (!std::filesystem::exists(dir_, ec)) return {};
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (util::starts_with(name, "checkpoint-") &&
        util::ends_with(name, kExtension)) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  bool removed = false;
  while (files.size() > keep_) {
    std::filesystem::remove(files.front(), ec);
    files.erase(files.begin());
    removed = true;
  }
  if (ec) {
    return util::make_error(util::ErrorCode::kIoError,
                            "prune failed in '" + dir_.string() +
                                "': " + ec.message());
  }
  if (removed) {
    // The unlinks above are directory mutations: without this fsync a
    // crash mid-prune can roll them back and resurrect a deleted
    // generation as newest-on-disk, which recovery would then serve.
    if (auto synced = util::fs::fsync_dir(dir_); !synced.ok()) {
      return synced.with_context("after pruning checkpoints");
    }
  }
  return {};
}

util::Result<CheckpointStore::LoadOutcome> CheckpointStore::load_newest()
    const {
  LoadOutcome outcome;
  std::error_code ec;
  if (!std::filesystem::exists(dir_, ec)) return outcome;

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (util::starts_with(name, "checkpoint-") &&
        util::ends_with(name, kExtension)) {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return util::make_error(util::ErrorCode::kIoError,
                            "cannot scan state dir '" + dir_.string() +
                                "': " + ec.message());
  }
  // Newest first: the filename zero-pads the cycle ordinal.
  std::sort(files.rbegin(), files.rend());
  for (const std::filesystem::path& file : files) {
    auto data = util::fs::read_file(file);
    if (!data.ok()) {
      outcome.rejected.push_back(
          {file.filename().string(), data.error().message});
      continue;
    }
    auto decoded = Checkpoint::decode(*data);
    if (!decoded.ok()) {
      outcome.rejected.push_back(
          {file.filename().string(), decoded.error().message});
      continue;
    }
    outcome.checkpoint = std::move(decoded).value();
    break;
  }
  return outcome;
}

util::Result<std::vector<CheckpointStore::Entry>> CheckpointStore::list()
    const {
  std::vector<Entry> entries;
  std::error_code ec;
  if (!std::filesystem::exists(dir_, ec)) return entries;

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (util::starts_with(name, "checkpoint-") &&
        util::ends_with(name, kExtension)) {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return util::make_error(util::ErrorCode::kIoError,
                            "cannot scan state dir '" + dir_.string() +
                                "': " + ec.message());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& file : files) {
    auto data = util::fs::read_file(file);
    if (!data.ok()) continue;
    auto decoded = Checkpoint::decode(*data);
    if (!decoded.ok()) continue;  // load_newest() reports the reason
    Entry entry;
    entry.cycle = decoded->cycle;
    entry.bytes = data->size();
    // The CRC is the verified header's third field; decode() above
    // already proved it matches the payload.
    const std::vector<std::string> fields =
        util::split(data->substr(0, data->find('\n')), ' ');
    if (fields.size() == 4) entry.crc32_hex = fields[2];
    entries.push_back(std::move(entry));
  }
  return entries;
}

util::Result<std::string> CheckpointStore::read_frame(
    std::uint64_t cycle) const {
  auto data = util::fs::read_file(path_for_cycle(cycle));
  if (!data.ok()) return data;
  auto decoded = Checkpoint::decode(*data);
  if (!decoded.ok()) {
    return util::make_error(decoded.error().code,
                            "refusing to serve checkpoint " +
                                std::to_string(cycle) + ": " +
                                decoded.error().message);
  }
  if (decoded->cycle != cycle) {
    return util::make_error(util::ErrorCode::kParseError,
                            "checkpoint file for cycle " +
                                std::to_string(cycle) + " carries cycle " +
                                std::to_string(decoded->cycle));
  }
  return data;
}

util::Result<Checkpoint> CheckpointStore::import_frame(
    std::string_view data) const {
  auto decoded = Checkpoint::decode(data);
  if (!decoded.ok()) {
    return util::make_error(decoded.error().code,
                            "rejecting imported frame: " +
                                decoded.error().message);
  }
  if (auto prepared = prepare(); !prepared.ok()) return prepared.error();
  auto written =
      util::fs::atomic_write(path_for_cycle(decoded->cycle), data);
  if (!written.ok()) {
    return util::make_error(written.error().code,
                            "storing imported frame: " +
                                written.error().message);
  }
  auto pruned = prune();
  (void)pruned;  // best-effort, like save()
  return decoded;
}

}  // namespace iqb::robust
