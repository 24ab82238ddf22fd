// The open-loop load generator: G threads, each pinned to its own CPU, each
// sending requests on its own seeded Poisson schedule whether or not earlier
// ones have been answered. A request is timed from its due time, so a stall
// anywhere also delays the requests queued behind it. At most `slots`
// connections per thread are open at once; a due request that finds none
// free waits for one (counted as a slot wait).
//
// Traffic speaks the svc protocol: a request is one newline-terminated line,
// a response is "<len>\n" plus len payload bytes. Every response byte is
// checked against the expected echo or object.

#ifndef PERFBENCH_SRC_GENERATOR_H_
#define PERFBENCH_SRC_GENERATOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// How a request ended. Every scheduled request ends in exactly one of these.
enum class Outcome : uint8_t {
  kPending,  // never resolved: a generator bug, caught by the ledger check
  kOk,
  kRefused,  // connect refused
  kTimeout,  // no complete response within the response timeout
  kReset,    // connection reset by the server
  kShort,    // EOF before the whole response (e.g. a server deadline close)
  kWrong,    // a response byte differed from the expected one
  kError,    // any other socket error
};
inline constexpr int kNumOutcomes = 8;
const char* OutcomeName(Outcome o);

// One scheduled request. Times are CLOCK_MONOTONIC ns.
struct Rec {
  uint64_t due = 0;
  uint64_t send = 0;  // the generator began the request (connect or write)
  uint64_t done = 0;  // last response byte read (or the failure was seen)
  Outcome outcome = Outcome::kPending;
  bool slot_wait = false;  // no connection was free when it fell due
};

enum class SpanKind : uint8_t {
  kConnect,    // connect() until the socket is writable
  kSend,       // the write() of the request line
  kFirstByte,  // end of the send until the first response byte is read
  kLastByte,   // first response byte until the last one
  kClose,      // close() of a connection
  kConstruct,  // Runtime construction
  kStart,      // Runtime::Start()
  kStop,       // Runtime::Stop()
};
inline constexpr int kNumSpanKinds = 8;
const char* SpanKindName(SpanKind k);

// Spans of one request share `id`; Runtime spans use the set-up cycle.
struct Span {
  uint64_t id = 0;
  SpanKind kind = SpanKind::kConnect;
  uint64_t start = 0;
  uint64_t end = 0;
};

struct GenConfig {
  bool keepalive = true;  // persistent echo connections, else one static fetch per connection
  uint16_t port = 0;
  uint64_t seed = 1;
  double rate_per_s = 1000;  // summed over all threads
  int threads = 1;
  std::vector<int> cpus;  // thread t pins to cpus[t % size]
  int slots = 1;          // connections per thread
  int payload_bytes = 64;  // keepalive request line length, newline excluded
  int num_objects = 64;    // static keys obj0..obj<n-1>
  int object_bytes = 1024;
  std::vector<uint16_t> src_ports;  // thread t binds ports i with i % threads == t
  uint64_t warmup_ns = 0;
  uint64_t window_ns = 0;
  uint64_t slice_ns = 0;  // with trace, requests due in odd slices record spans
  bool trace = false;
};

// Per-thread results, read after Join().
struct GenThreadResult {
  std::vector<Rec> recs;
  std::vector<Span> spans;
  uint64_t conns_opened = 0;
  uint64_t port_retries = 0;  // bind() found a source port in use and moved on
  uint64_t max_conn_requests = 0;  // most requests one keepalive connection carried
  std::string error;          // set-up failure
};

class Generator {
 public:
  explicit Generator(GenConfig config);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Starts the threads: each pins itself, pre-faults its record buffers,
  // opens its keepalive connections and waits at the start line. False
  // (with *error) if any thread could not get ready.
  bool Prepare(std::string* error);
  // Releases the threads; the schedule starts at `start_ns`, the window at
  // start_ns + warmup_ns and it ends window_ns later.
  void Go(uint64_t start_ns);
  // Waits until every thread has resolved all its requests and exited.
  void Join();

  const std::vector<std::unique_ptr<GenThreadResult>>& results() const { return results_; }

 private:
  void RunThread(int t);

  GenConfig config_;
  std::vector<std::unique_ptr<GenThreadResult>> results_;
  std::mutex mu_;
  std::condition_variable cv_;
  int ready_ = 0;          // guarded by mu_
  int failed_ = 0;         // guarded by mu_
  bool go_ = false;        // guarded by mu_
  uint64_t start_ns_ = 0;  // guarded by mu_
  std::vector<std::thread> threads_;
};

uint64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GENERATOR_H_
