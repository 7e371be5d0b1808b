// One-line JSON records the perfbench binary prints for run.py, plus the host
// stamps every record carries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Flat JSON object builder (keys are emitted in insertion order).
class Record {
 public:
  Record& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  Record& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Record& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Record& list(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Record& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  /// Prints the record as one stdout line tagged for run.py.
  void emit() const { std::printf("PERFBENCH {%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

/// nproc, pool workers, cache sizes and build type.
void stamp_host(Record& r);

/// This process's peak RSS (VmHWM: the process that did the work, never the
/// parent that launched it) since it started or since reset_peak_rss(), in MB.
[[nodiscard]] double peak_rss_mb();

/// Restarts the peak RSS from the current RSS.
void reset_peak_rss();

/// Single-threaded memcpy bandwidth (GB/s, median of 3) over a source and
/// destination that together span 4x the last-level cache (>= 256 MiB);
/// `working_set_bytes` receives that total.
[[nodiscard]] double memcpy_gbps(std::size_t& working_set_bytes);

}  // namespace perfbench
