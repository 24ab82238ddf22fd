#include "procfs.h"

#include <dirent.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// Splits on runs of whitespace.
std::vector<std::string_view> Fields(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSpace(line[i])) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

bool ToU64(std::string_view s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::string();
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool ParseSchedstat(std::string_view text, Schedstat* out) {
  std::vector<std::string_view> f = Fields(text);
  return f.size() >= 3 && ToU64(f[0], &out->run_ns) && ToU64(f[1], &out->run_delay_ns) &&
         ToU64(f[2], &out->timeslices);
}

bool ParseStatusField(std::string_view text, std::string_view key, uint64_t* out) {
  for (std::string_view line : Lines(text)) {
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::vector<std::string_view> f = Fields(line.substr(key.size() + 1));
      return !f.empty() && ToU64(f[0], out);
    }
  }
  return false;
}

bool ParseNetstat(std::string_view text, std::string_view section, std::string_view field,
                  uint64_t* out) {
  std::vector<std::string_view> lines = Lines(text);
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    std::vector<std::string_view> names = Fields(lines[i]);
    if (names.empty() || names[0].size() != section.size() + 1 ||
        names[0].substr(0, section.size()) != section || names[0].back() != ':') {
      continue;
    }
    std::vector<std::string_view> values = Fields(lines[i + 1]);
    if (values.size() != names.size() || values[0] != names[0]) {
      return false;
    }
    auto it = std::find(names.begin() + 1, names.end(), field);
    return it != names.end() && ToU64(values[static_cast<size_t>(it - names.begin())], out);
  }
  return false;
}

bool ParseStealJiffies(std::string_view text, uint64_t* out) {
  for (std::string_view line : Lines(text)) {
    std::vector<std::string_view> f = Fields(line);
    // cpu user nice system idle iowait irq softirq steal ...
    if (!f.empty() && f[0] == "cpu") {
      return f.size() > 8 && ToU64(f[8], out);
    }
  }
  return false;
}

bool ParsePsiSomeTotalUs(std::string_view text, uint64_t* out) {
  for (std::string_view line : Lines(text)) {
    std::vector<std::string_view> f = Fields(line);
    if (f.empty() || f[0] != "some") {
      continue;
    }
    for (std::string_view kv : f) {
      if (kv.substr(0, 6) == "total=") {
        return ToU64(kv.substr(6), out);
      }
    }
  }
  return false;
}

std::vector<int> ListTasks() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (dirent* e = readdir(dir)) {
    uint64_t tid = 0;
    if (ToU64(e->d_name, &tid)) {
      tids.push_back(static_cast<int>(tid));
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

bool ReadTask(int tid, TaskSample* out) {
  std::string base = "/proc/self/task/" + std::to_string(tid);
  std::string status = ReadFile(base + "/status");
  return ParseSchedstat(ReadFile(base + "/schedstat"), &out->sched) &&
         ParseStatusField(status, "voluntary_ctxt_switches", &out->voluntary) &&
         ParseStatusField(status, "nonvoluntary_ctxt_switches", &out->nonvoluntary);
}

}  // namespace perfbench
