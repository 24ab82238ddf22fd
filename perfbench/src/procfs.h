// Readers for the /proc files the loopback benchmark samples. Each parser
// takes the file's text, so tests run them on canned input; the Read*
// wrappers fetch the live file and return false when it is missing.

#ifndef PERFBENCH_SRC_PROCFS_H_
#define PERFBENCH_SRC_PROCFS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// The whole file, or "" when it cannot be read.
std::string ReadFile(const std::string& path);

// /proc/<pid>/task/<tid>/schedstat: "<run_ns> <run_delay_ns> <timeslices>".
struct Schedstat {
  uint64_t run_ns = 0;
  uint64_t run_delay_ns = 0;
  uint64_t timeslices = 0;
};
bool ParseSchedstat(std::string_view text, Schedstat* out);

// A "Key:\t<number>[ kB]" field of a /proc status file (VmHWM,
// voluntary_ctxt_switches, ...).
bool ParseStatusField(std::string_view text, std::string_view key, uint64_t* out);

// A counter of /proc/net/netstat or /proc/net/snmp, where each section is a
// header line of names followed by a line of values, both prefixed by
// "<section>:".
bool ParseNetstat(std::string_view text, std::string_view section, std::string_view field,
                  uint64_t* out);

// The steal column (8th value) of /proc/stat's aggregate "cpu" line.
bool ParseStealJiffies(std::string_view text, uint64_t* out);

// The "some ... total=<us>" stall total of a /proc/pressure file.
bool ParsePsiSomeTotalUs(std::string_view text, uint64_t* out);

// Thread ids of this process, from /proc/self/task.
std::vector<int> ListTasks();

struct TaskSample {
  Schedstat sched;
  uint64_t voluntary = 0;
  uint64_t nonvoluntary = 0;
};
// Schedstat and context switches of thread `tid` of this process.
bool ReadTask(int tid, TaskSample* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROCFS_H_
