#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/errors.hpp"

namespace phishinghook::obs {

namespace detail {

std::atomic<std::uint64_t>& null_counter_cell() {
  static std::atomic<std::uint64_t> cell{0};
  return cell;
}

std::atomic<double>& null_gauge_cell() {
  static std::atomic<double> cell{0.0};
  return cell;
}

}  // namespace detail

std::string label(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(key.size() + value.size() + 3);
  out.append(key);
  out.append("=\"");
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void json_escape_to(std::string& out, std::string_view text) {
  // Bytes that need no escape are appended in runs.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[(c >> 4) & 0xf];
        out += kHex[c & 0xf];
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

namespace {

bool name_start_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool name_char(char c) { return name_start_char(c) || (c >= '0' && c <= '9'); }

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "summary";
  }
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || !name_start_char(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!name_char(c)) return false;
  }
  return true;
}

bool valid_label_fragment(std::string_view labels) {
  // Grammar: key="value"(,key="value")* — exactly what obs::label() joined
  // by commas produces. Colons are not legal in label keys.
  std::size_t at = 0;
  while (at < labels.size()) {
    std::size_t key_end = at;
    while (key_end < labels.size() && labels[key_end] != '=' &&
           labels[key_end] != ':') {
      ++key_end;
    }
    const std::string_view key = labels.substr(at, key_end - at);
    if (key.empty() || !name_start_char(key[0]) || key[0] == ':') return false;
    for (char c : key.substr(1)) {
      if (!name_char(c) || c == ':') return false;
    }
    if (key_end >= labels.size() || labels[key_end] != '=' ||
        key_end + 1 >= labels.size() || labels[key_end + 1] != '"') {
      return false;
    }
    std::size_t cursor = key_end + 2;
    bool closed = false;
    while (cursor < labels.size()) {
      if (labels[cursor] == '\\') {
        if (cursor + 1 >= labels.size()) return false;
        cursor += 2;
        continue;
      }
      if (labels[cursor] == '"') {
        closed = true;
        ++cursor;
        break;
      }
      ++cursor;
    }
    if (!closed) return false;
    if (cursor == labels.size()) return true;
    if (labels[cursor] != ',' || cursor + 1 == labels.size()) return false;
    at = cursor + 1;
  }
  return labels.empty();
}

const MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view labels, Kind kind) {
  // Caller holds mutex_.
  for (const Entry& entry : entries_) {
    if (entry.name == name && entry.labels == labels) {
      if (entry.kind != kind) {
        throw InvalidArgument(
            "metric '" + std::string(name) + "' is already registered as a " +
            kind_name(static_cast<int>(entry.kind)) +
            "; cannot re-register it as a " +
            kind_name(static_cast<int>(kind)) +
            " (one name, one kind — pick a new name or reuse the handle)");
      }
      return entry;
    }
  }
  if (!valid_metric_name(name)) {
    throw InvalidArgument("metric name '" + std::string(name) +
                          "' is not a valid Prometheus name "
                          "([a-zA-Z_:][a-zA-Z0-9_:]*)");
  }
  if (!valid_label_fragment(labels)) {
    throw InvalidArgument("label fragment '" + std::string(labels) +
                          "' for metric '" + std::string(name) +
                          "' is not well-formed key=\"value\" pairs "
                          "(build it with obs::label())");
  }
  Entry entry;
  entry.name = std::string(name);
  entry.labels = std::string(labels);
  entry.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      entry.index = counters_.size();
      counters_.emplace_back(0);
      break;
    case Kind::kGauge:
      entry.index = gauges_.size();
      gauges_.emplace_back(0.0);
      break;
    case Kind::kHistogram:
      entry.index = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Counter MetricsRegistry::counter(std::string_view name,
                                 std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Counter(&counters_[find_or_create(name, labels, Kind::kCounter).index]);
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return Gauge(&gauges_[find_or_create(name, labels, Kind::kGauge).index]);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name,
                                             std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[find_or_create(name, labels, Kind::kHistogram).index];
}

void MetricsRegistry::set_help(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [known, text] : help_) {
    if (known == name) {
      text = std::string(help);
      return;
    }
  }
  help_.emplace_back(std::string(name), std::string(help));
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<const MetricsRegistry::Entry*> MetricsRegistry::sorted_entries()
    const {
  // Caller holds mutex_.
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& entry : entries_) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    return a->name != b->name ? a->name < b->name : a->labels < b->labels;
  });
  return sorted;
}

namespace {

/// `name{labels}` or `name{labels,extra}` with empties handled.
std::string exposition_name(const std::string& name, const std::string& labels,
                            const std::string& extra = "") {
  std::string joined = labels;
  if (!extra.empty()) {
    if (!joined.empty()) joined += ',';
    joined += extra;
  }
  return joined.empty() ? name : name + '{' + joined + '}';
}

/// `# HELP` text must keep the exposition line-oriented: escape the two
/// characters the format reserves (backslash and newline).
std::string help_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<const Entry*> sorted = sorted_entries();
  const std::string* last_name = nullptr;
  for (const Entry* entry : sorted) {
    if (last_name == nullptr || *last_name != entry->name) {
      // HELP precedes TYPE per the exposition format. Metrics without
      // registered help text get a self-describing default so scrapers
      // that require the comment pair never see a bare TYPE.
      const std::string* help = nullptr;
      for (const auto& [known, text] : help_) {
        if (known == entry->name) {
          help = &text;
          break;
        }
      }
      out << "# HELP " << entry->name << ' '
          << (help != nullptr ? help_escape(*help)
                              : "phishinghook " +
                                    std::string(kind_name(
                                        static_cast<int>(entry->kind))))
          << '\n';
      out << "# TYPE " << entry->name << ' '
          << kind_name(static_cast<int>(entry->kind)) << '\n';
      last_name = &entry->name;
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out << exposition_name(entry->name, entry->labels) << ' '
            << counters_[entry->index].load(std::memory_order_relaxed) << '\n';
        break;
      case Kind::kGauge:
        out << exposition_name(entry->name, entry->labels) << ' '
            << gauges_[entry->index].load(std::memory_order_relaxed) << '\n';
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = histograms_[entry->index];
        static constexpr std::pair<double, const char*> kQuantiles[] = {
            {0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}};
        for (const auto& [q, tag] : kQuantiles) {
          out << exposition_name(entry->name, entry->labels,
                                 std::string("quantile=\"") + tag + '"')
              << ' ' << h.quantile(q) << '\n';
        }
        out << exposition_name(entry->name + "_sum", entry->labels) << ' '
            << h.sum() << '\n';
        out << exposition_name(entry->name + "_count", entry->labels) << ' '
            << h.count() << '\n';
        out << exposition_name(entry->name + "_max", entry->labels) << ' '
            << h.max_value() << '\n';
        break;
      }
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instruments with static storage duration may still
  // publish during process teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace phishinghook::obs
