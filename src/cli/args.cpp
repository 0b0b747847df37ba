#include "cli/args.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/assert.h"

namespace poolnet::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  POOLNET_ASSERT_MSG(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{true, "", help};
  order_.push_back(name);
  flags_[name] = false;
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  POOLNET_ASSERT_MSG(!specs_.count(name), "duplicate argument declaration");
  specs_[name] = Spec{false, default_value, help};
  order_.push_back(name);
  values_[name] = default_value;
}

bool ArgParser::parse(int argc, const char* const* argv, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      *error = "unknown option: --" + arg;
      return false;
    }
    if (it->second.is_flag) {
      if (has_value) {
        *error = "flag --" + arg + " does not take a value";
        return false;
      }
      flags_[arg] = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        *error = "option --" + arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    values_[arg] = value;
  }
  return true;
}

std::string ArgParser::help() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    oss << "  --" << name;
    if (!spec.is_flag) oss << " <value>";
    oss << "\n      " << spec.help;
    if (!spec.is_flag) oss << " (default: " << spec.default_value << ")";
    oss << "\n";
  }
  oss << "  --help\n      show this message\n";
  return oss.str();
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  POOLNET_ASSERT_MSG(it != flags_.end(), "undeclared flag queried");
  return it->second;
}

const std::string& ArgParser::option(const std::string& name) const {
  const auto it = values_.find(name);
  POOLNET_ASSERT_MSG(it != values_.end(), "undeclared option queried");
  return it->second;
}

std::optional<std::int64_t> ArgParser::int_option(const std::string& name,
                                                  std::int64_t lo,
                                                  std::int64_t hi,
                                                  std::string* error) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    *error = "--" + name + ": not an integer: " + raw;
    return std::nullopt;
  }
  if (v < lo || v > hi) {
    *error = "--" + name + ": " + raw + " out of range [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return std::nullopt;
  }
  return v;
}

std::optional<double> ArgParser::double_option(const std::string& name,
                                               double lo, double hi,
                                               std::string* error) const {
  const std::string& raw = option(name);
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(v)) {
    *error = "--" + name + ": not a finite number: " + raw;
    return std::nullopt;
  }
  if (v < lo || v > hi) {
    *error = "--" + name + ": " + raw + " out of range";
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> ArgParser::choice_option(
    const std::string& name, const std::vector<std::string>& choices,
    std::string* error) const {
  const std::string& raw = option(name);
  for (const auto& c : choices) {
    if (raw == c) return raw;
  }
  std::string joined;
  for (const auto& c : choices) {
    if (!joined.empty()) joined += "|";
    joined += c;
  }
  *error = "--" + name + ": expected one of " + joined + ", got " + raw;
  return std::nullopt;
}

void add_engine_options(ArgParser& parser) {
  parser.add_option("batch", "off",
                    "query engine epoch size: off, or queries per merged "
                    "dissemination");
  parser.add_option("batch-deadline", "16",
                    "flush a pending epoch after this many engine events");
  parser.add_option("qcache", "off",
                    "sink result cache: on, off or ttl:<events>");
}

bool parse_engine_options(const ArgParser& parser,
                          engine::QueryEngineConfig* config,
                          std::string* error) {
  if (!engine::parse_batch_spec(parser.option("batch"), &config->batch_size,
                                error)) {
    return false;
  }
  const auto deadline =
      parser.int_option("batch-deadline", 1, 1 << 30, error);
  if (!deadline) return false;
  config->batch_deadline = static_cast<std::uint64_t>(*deadline);
  return engine::parse_qcache_spec(parser.option("qcache"), &config->cache,
                                   error);
}

void add_fault_options(ArgParser& parser) {
  parser.add_option(
      "faults", "off",
      "live failure plan: off, or ';'-joined kill:<frac>@<t>, node:<id>@<t>, "
      "blackout:<x>,<y>,<r>@<t>, degrade:<p>@<t0>-<t1>, seed:<n> "
      "(t = query index)");
}

bool parse_fault_options(const ArgParser& parser, sim::FaultPlan* plan,
                         std::string* error) {
  return sim::parse_fault_spec(parser.option("faults"), plan, error);
}

void add_telemetry_options(ArgParser& parser) {
  parser.add_option("metrics", "off",
                    "telemetry snapshot: off, json, csv, json:<path> or "
                    "csv:<path>");
  parser.add_option("trace", "0",
                    "hop-trace ring capacity per network (0 = tracing off)");
}

bool parse_telemetry_options(const ArgParser& parser,
                             obs::TelemetryConfig* config,
                             std::string* error) {
  if (!obs::parse_metrics_spec(parser.option("metrics"), config, error))
    return false;
  const auto capacity = parser.int_option("trace", 0, 1 << 30, error);
  if (!capacity) return false;
  config->trace_capacity = static_cast<std::size_t>(*capacity);
  return true;
}

void add_store_options(ArgParser& parser) {
  parser.add_option("store", "flat",
                    "central store engine: flat, or "
                    "paged[:<pages>:<page-kb>[:mem|file]] for the "
                    "out-of-core store with an LRU buffer pool");
}

bool parse_store_options(const ArgParser& parser,
                         storage::StoreConfig* config, std::string* error) {
  return storage::parse_store_spec(parser.option("store"), config, error);
}

}  // namespace poolnet::cli
