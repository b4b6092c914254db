#include "fault/fault.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>

#include <cerrno>

#include "sync/mutex.hpp"

namespace bmf::fault {

namespace {

const char* const kSiteNames[kSiteCount] = {
    "read",   "send",  "poll",  "connect", "accept",
    "epoll",  "write", "fsync", "rename"};
const char* const kActionNames[] = {"short", "eintr", "delay", "drop",
                                    "corrupt", "crash"};
constexpr std::size_t kActionCount =
    sizeof(kActionNames) / sizeof(kActionNames[0]);

constexpr unsigned bit(Action action) {
  return 1u << static_cast<unsigned>(action);
}
constexpr unsigned kEverySite =
    bit(Action::kEintr) | bit(Action::kDelay) | bit(Action::kCrash);
constexpr unsigned kShort = bit(Action::kShortIo);
constexpr unsigned kDrop = bit(Action::kDrop);
constexpr unsigned kCorrupt = bit(Action::kCorrupt);

/// The actions each site performs, indexed by Site: the 45 (site, action)
/// pairs that have an effect. A rule for any other pair would fire, count
/// and use up its max_triggers while doing nothing, and shadow every later
/// rule for its site, so parse_plan rejects it.
constexpr unsigned kSupported[kSiteCount] = {
    kEverySite | kShort | kDrop | kCorrupt,  // read
    kEverySite | kShort | kDrop | kCorrupt,  // send
    kEverySite | kShort | kDrop,             // poll
    kEverySite | kDrop,                      // connect
    kEverySite | kShort | kDrop,             // accept
    kEverySite | kShort,                     // epoll
    kEverySite | kShort | kDrop | kCorrupt,  // write
    kEverySite | kShort | kDrop,             // fsync
    kEverySite | kDrop,                      // rename
};

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("parse_plan: " + why + " in '" + spec + "'");
}

/// Position of `token` in `names`, or `count` when it is not there.
std::size_t index_of(const char* const* names, std::size_t count,
                     std::string_view token) {
  std::size_t i = 0;
  while (i < count && token != names[i]) ++i;
  return i;
}

/// All of `field` as a T. A sign T cannot take, whitespace, trailing
/// characters or a value T cannot hold fail, so "*4294967296" cannot wrap
/// to "unlimited" and "=4294967297" cannot become a 1 ms delay.
template <typename T>
bool parse_whole(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const char* to_string(Site site) {
  return kSiteNames[static_cast<std::size_t>(site)];
}

const char* to_string(Action action) {
  return kActionNames[static_cast<std::size_t>(action)];
}

FaultPlan parse_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string_view item(spec.data() + pos, end - pos);
    const std::string text(item);
    pos = end + 1;
    if (item.empty()) continue;

    if (item.substr(0, 5) == "seed=") {
      if (!parse_whole(item.substr(5), plan.seed))
        bad_spec(spec, "bad seed '" + text + "'");
      continue;
    }

    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos)
      bad_spec(spec, "rule '" + text + "' has no ':'");
    // The action runs to the first tail marker, each tail field to the next.
    std::size_t mark =
        std::min(item.find_first_of("=*@+", colon), item.size());
    const std::string site(item.substr(0, colon));
    const std::string action(item.substr(colon + 1, mark - colon - 1));
    const std::size_t s = index_of(kSiteNames, kSiteCount, site);
    if (s == kSiteCount) bad_spec(spec, "unknown site '" + site + "'");
    const std::size_t a = index_of(kActionNames, kActionCount, action);
    if (a == kActionCount) bad_spec(spec, "unknown action '" + action + "'");
    FaultRule rule;
    rule.site = static_cast<Site>(s);
    rule.action = static_cast<Action>(a);
    if ((kSupported[s] & bit(rule.action)) == 0)
      bad_spec(spec, "'" + site + ":" + action + "' has no effect");

    while (mark < item.size()) {
      const char marker = item[mark];
      const std::size_t from = mark + 1;
      mark = std::min(item.find_first_of("=*@+", from), item.size());
      const std::string_view field = item.substr(from, mark - from);
      bool ok = false;
      if (marker == '=')
        ok = parse_whole(field, rule.delay_ms) && rule.delay_ms >= 0;
      else if (marker == '*')
        ok = parse_whole(field, rule.max_triggers);
      else if (marker == '+')
        ok = parse_whole(field, rule.skip);
      else  // '@', written so that NaN fails too
        ok = parse_whole(field, rule.probability) &&
             rule.probability >= 0.0 && rule.probability <= 1.0;
      if (!ok)
        bad_spec(spec, std::string("bad '") + marker + "' field '" +
                           std::string(field) + "'");
    }
    if (rule.action == Action::kDelay && rule.delay_ms == 0)
      bad_spec(spec, "delay rule '" + text + "' needs '=ms'");
    plan.rules.push_back(rule);
  }
  if (plan.rules.empty()) bad_spec(spec, "no rules");
  return plan;
}

#ifdef BMF_FAULT_INJECTION

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct RuleState {
  FaultRule rule;
  std::atomic<std::uint64_t> seen{0};
  std::atomic<std::uint64_t> triggered{0};
};

struct Engine {
  std::uint64_t seed = 1;
  std::vector<std::unique_ptr<RuleState>> rules;
  std::atomic<std::uint64_t> calls[kSiteCount] = {};
  std::atomic<std::uint64_t> triggered[kSiteCount] = {};
};

// Armed engine, read lock-free on the hot path. Replaced engines are
// parked (never freed until exit) so a wrapper racing a disarm can keep
// using the pointer it loaded — the test-only cost is a few retained
// Engine objects per process.
std::atomic<Engine*> g_engine{nullptr};

// Serializes arm(): the park list is only ever touched while publishing a
// new engine, so it lives behind the same mutex instead of a bare static.
struct ArmState {
  sync::Mutex mu;
  std::vector<std::unique_ptr<Engine>> parked BMF_GUARDED_BY(mu);
};
ArmState& arm_state() {
  static ArmState state;
  return state;
}

struct Decision {
  bool fire = false;
  Action action = Action::kEintr;
  int delay_ms = 0;
  std::uint64_t draw = 0;  // entropy for corrupt-byte selection

  bool is(Action a) const { return fire && action == a; }
};

/// First matching rule wins; at most one fault per wrapper call.
Decision decide(Engine& e, Site site) {
  const auto s = static_cast<std::size_t>(site);
  e.calls[s].fetch_add(1, std::memory_order_relaxed);
  for (const std::unique_ptr<RuleState>& rs : e.rules) {
    if (rs->rule.site != site) continue;
    const std::uint64_t n = rs->seen.fetch_add(1, std::memory_order_relaxed);
    if (n < rs->rule.skip) continue;
    const std::uint32_t max = rs->rule.max_triggers;
    if (max != 0 &&
        rs->triggered.load(std::memory_order_relaxed) >= max)
      continue;
    const std::uint64_t h =
        splitmix64(e.seed ^ (std::uint64_t{s} << 56) ^ n);
    if (rs->rule.probability < 1.0) {
      const double draw =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
      if (draw >= rs->rule.probability) continue;
    }
    if (max != 0 &&
        rs->triggered.fetch_add(1, std::memory_order_relaxed) >= max) {
      // Lost the race for the last trigger slot; undo and pass through.
      rs->triggered.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (max == 0) rs->triggered.fetch_add(1, std::memory_order_relaxed);
    e.triggered[s].fetch_add(1, std::memory_order_relaxed);
    Decision d;
    d.fire = true;
    d.action = rs->rule.action;
    d.delay_ms = rs->rule.delay_ms;
    d.draw = h;
    return d;
  }
  return {};
}

// The crash action: die like kill -9 would — no atexit handlers, no
// stream flushing, nothing the store could use to "clean up" state that a
// real power loss would have left torn. Exit code 137 mirrors SIGKILL so
// crash-matrix harnesses can tell an injected crash from a normal exit.
[[noreturn]] void crash_now(Site site) {
  const char* name = kSiteNames[static_cast<std::size_t>(site)];
  char msg[64];
  const int len = std::snprintf(msg, sizeof msg,
                                "bmf_fault: crash injected at %s\n", name);
  if (len > 0) {
    const ssize_t ignored =
        ::write(2, msg, static_cast<std::size_t>(len));
    (void)ignored;
  }
  std::_Exit(137);
}

/// The part of a fault every site shares. With no plan armed it is one
/// acquire load. Otherwise it asks the plan about this call and carries
/// out the two actions every site performs alike: `delay` sleeps, then
/// lets the real call run (fire comes back false), and `crash` never
/// returns. Write passes its buffer: a draw-derived prefix of it, possibly
/// empty, reaches the fd before the process dies, so the file ends in a
/// torn record. What comes back is the caller's own eintr/short/drop/
/// corrupt work.
inline Decision inject(Site site, int fd = -1, const void* buf = nullptr,
                       std::size_t n = 0) noexcept {
  Engine* e = g_engine.load(std::memory_order_acquire);
  if (e == nullptr) return {};
  Decision d = decide(*e, site);
  if (d.is(Action::kDelay)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
    d.fire = false;
  } else if (d.is(Action::kCrash)) {
    const std::size_t torn = n == 0 ? 0 : d.draw % (n + 1);
    if (torn > 0) {
      const ssize_t ignored = ::write(fd, buf, torn);
      (void)ignored;
    }
    crash_now(site);
  }
  return d;
}

int fail(int error) {
  errno = error;
  return -1;
}

void flip_bit(std::uint8_t* bytes, std::size_t n, std::uint64_t draw) {
  bytes[draw % n] ^= static_cast<std::uint8_t>(1u << ((draw >> 8) % 8));
}

/// A copy of buf[0, n) with one draw-chosen bit flipped: the kernel gets
/// the corruption, the caller's bytes stay intact.
std::vector<std::uint8_t> corrupted(const void* buf, std::size_t n,
                                    std::uint64_t draw) {
  const auto* bytes = static_cast<const std::uint8_t*>(buf);
  std::vector<std::uint8_t> copy(bytes, bytes + n);
  flip_bit(copy.data(), n, draw);
  return copy;
}

}  // namespace

bool compiled_in() noexcept { return true; }

void arm(const FaultPlan& plan) {
  auto engine = std::make_unique<Engine>();
  engine->seed = plan.seed;
  engine->rules.reserve(plan.rules.size());
  for (const FaultRule& r : plan.rules) {
    auto rs = std::make_unique<RuleState>();
    rs->rule = r;
    engine->rules.push_back(std::move(rs));
  }
  ArmState& state = arm_state();
  sync::LockGuard lock(state.mu);
  g_engine.store(engine.get(), std::memory_order_release);
  state.parked.push_back(std::move(engine));
}

void disarm() noexcept {
  g_engine.store(nullptr, std::memory_order_release);
}

bool armed() noexcept {
  return g_engine.load(std::memory_order_acquire) != nullptr;
}

bool arm_from_env() {
  const char* spec = std::getenv("BMF_FAULT_PLAN");
  if (spec == nullptr || *spec == '\0') return false;
  arm(parse_plan(spec));
  return true;
}

FaultStats stats() noexcept {
  FaultStats out;
  Engine* e = g_engine.load(std::memory_order_acquire);
  if (e == nullptr) return out;
  for (std::size_t s = 0; s < kSiteCount; ++s) {
    out.site[s].calls = e->calls[s].load(std::memory_order_relaxed);
    out.site[s].triggered = e->triggered[s].load(std::memory_order_relaxed);
  }
  return out;
}

// Each wrapper below carries out only the actions kSupported gives its
// site beyond the shared three: inject() has done delay and crash.

ssize_t sys_read(int fd, void* buf, std::size_t n) noexcept {
  const Decision d = inject(Site::kRead);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kShortIo)) n = n > 0 ? 1 : 0;
  if (d.is(Action::kDrop)) ::shutdown(fd, SHUT_RDWR);
  if (d.is(Action::kCorrupt)) {
    const ssize_t rc = ::read(fd, buf, n);
    if (rc > 0)
      flip_bit(static_cast<std::uint8_t*>(buf), static_cast<std::size_t>(rc),
               d.draw);
    return rc;
  }
  return ::read(fd, buf, n);
}

ssize_t sys_send(int fd, const void* buf, std::size_t n, int flags) noexcept {
  const Decision d = inject(Site::kSend);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kShortIo)) n = n > 0 ? 1 : 0;
  if (d.is(Action::kDrop)) ::shutdown(fd, SHUT_RDWR);
  if (d.is(Action::kCorrupt) && n > 0)
    return ::send(fd, corrupted(buf, n, d.draw).data(), n, flags);
  return ::send(fd, buf, n, flags);
}

int sys_poll(struct pollfd* fds, nfds_t nfds, int timeout_ms) noexcept {
  const Decision d = inject(Site::kPoll);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kShortIo)) return 0;  // spurious "deadline expired"
  if (d.is(Action::kDrop) && nfds > 0) ::shutdown(fds[0].fd, SHUT_RDWR);
  return ::poll(fds, nfds, timeout_ms);
}

int sys_connect(int fd, const struct sockaddr* addr, socklen_t len) noexcept {
  const Decision d = inject(Site::kConnect);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kDrop)) return fail(ECONNREFUSED);
  return ::connect(fd, addr, len);
}

int sys_accept(int fd) noexcept {
  const Decision d = inject(Site::kAccept);
  if (d.is(Action::kEintr)) return fail(EINTR);
  // "Short accept": the wakeup had no connection behind it (raced away,
  // or a spurious event-loop readiness report).
  if (d.is(Action::kShortIo)) return fail(EAGAIN);
  const int conn = ::accept(fd, nullptr, nullptr);
  if (d.is(Action::kDrop) && conn >= 0) ::shutdown(conn, SHUT_RDWR);
  return conn;
}

int sys_epoll_wait(int epfd, struct epoll_event* events, int max_events,
                   int timeout_ms) noexcept {
  const Decision d = inject(Site::kEpoll);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kShortIo)) return 0;  // spurious "nothing ready" wakeup
  return ::epoll_wait(epfd, events, max_events, timeout_ms);
}

ssize_t sys_write(int fd, const void* buf, std::size_t n) noexcept {
  const Decision d = inject(Site::kWrite, fd, buf, n);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kShortIo)) n = n > 0 ? 1 : 0;
  if (d.is(Action::kDrop)) return fail(EIO);  // the disk said no
  if (d.is(Action::kCorrupt) && n > 0)
    return ::write(fd, corrupted(buf, n, d.draw).data(), n);
  return ::write(fd, buf, n);
}

int sys_fsync(int fd) noexcept {
  const Decision d = inject(Site::kFsync);
  if (d.is(Action::kEintr)) return fail(EINTR);
  // A lying fsync: reports success, synced nothing.
  if (d.is(Action::kShortIo)) return 0;
  if (d.is(Action::kDrop)) return fail(EIO);
  return ::fsync(fd);
}

int sys_rename(const char* oldpath, const char* newpath) noexcept {
  const Decision d = inject(Site::kRename);
  if (d.is(Action::kEintr)) return fail(EINTR);
  if (d.is(Action::kDrop)) return fail(EIO);
  return ::rename(oldpath, newpath);
}

#else  // !BMF_FAULT_INJECTION

bool compiled_in() noexcept { return false; }
void arm(const FaultPlan&) {}
void disarm() noexcept {}
bool armed() noexcept { return false; }
bool arm_from_env() { return false; }
FaultStats stats() noexcept { return {}; }

#endif  // BMF_FAULT_INJECTION

}  // namespace bmf::fault
