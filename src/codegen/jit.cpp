#include "polymg/codegen/jit.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "polymg/common/error.hpp"
#include "polymg/common/fault.hpp"
#include "polymg/ir/regprog.hpp"
#include "polymg/obs/metrics.hpp"
#include "polymg/obs/trace.hpp"

namespace polymg::codegen {

namespace {

using poly::index_t;

// ---------------------------------------------------------------------
// Process-wide mode gate and cache-directory state.
// ---------------------------------------------------------------------

std::atomic<int> g_mode{static_cast<int>(opt::JitMode::Auto)};

std::mutex& jit_mutex() {
  static std::mutex mu;
  return mu;
}

std::string& cache_dir_storage() {
  static std::string dir;  // empty = derive the default lazily
  return dir;
}

std::string default_cache_dir() {
  if (const char* e = std::getenv("POLYMG_JIT_CACHE_DIR"); e != nullptr && *e) {
    return e;
  }
  const char* tmp = std::getenv("TMPDIR");
  std::string base = (tmp != nullptr && *tmp) ? tmp : "/tmp";
  if (!base.empty() && base.back() == '/') base.pop_back();
  return base + "/polymg-jit-" + std::to_string(geteuid()) + "-a" +
         std::to_string(ir::kJitAbiVersion);
}

/// Cache dir, created on demand. Caller holds jit_mutex().
std::string cache_dir_locked() {
  std::string& dir = cache_dir_storage();
  if (dir.empty()) dir = default_cache_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; compile fails loudly
  return dir;
}

// ---------------------------------------------------------------------
// Toolchain invocation.
// ---------------------------------------------------------------------

std::string jit_compiler() {
  if (const char* e = std::getenv("POLYMG_JIT_CC"); e != nullptr && *e) return e;
  return "cc";
}

/// -ffp-contract=off is load-bearing: the emitted code must reproduce
/// the stack interpreter (the guard's oracle) bit for bit, and the
/// interpreter's one-operation-at-a-time evaluation can never fuse a
/// separate mul and add into one FMA. Everything else is plain
/// optimization.
std::string jit_cflags() {
  std::string flags =
      "-O3 -march=native -fopenmp-simd -ffp-contract=off -fPIC -shared";
  if (const char* e = std::getenv("POLYMG_JIT_CFLAGS"); e != nullptr && *e) {
    flags += " ";
    flags += e;
  }
  return flags;
}

/// Compile budget (ms): past this the compiler child is SIGKILLed and
/// specialization degrades to the interpreter. Generous by default —
/// a healthy cc finishes a kernel module in well under a second; only a
/// wedged toolchain ever meets the watchdog.
long jit_timeout_ms() {
  if (const char* e = std::getenv("POLYMG_JIT_TIMEOUT_MS");
      e != nullptr && *e) {
    const long v = std::atol(e);
    if (v > 0) return v;
  }
  return 10000;
}

/// Address-space cap (MiB) for the compiler child; <= 0 disables.
long jit_rlimit_as_mb() {
  if (const char* e = std::getenv("POLYMG_JIT_RLIMIT_AS_MB");
      e != nullptr && *e) {
    return std::atol(e);
  }
  return 4096;
}

/// Whitespace argv split. The command is our own jit_compiler() +
/// jit_cflags(); no flag carries embedded spaces, so no quoting grammar
/// is needed — and dropping the shell is the point: the old std::system
/// path gave a wedged or runaway cc the whole process group and no
/// resource bounds.
std::vector<std::string> split_argv(const std::string& s) {
  std::vector<std::string> words;
  std::istringstream is(s);
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

/// Invoke the system compiler in a sandboxed child: fork/execvp (no
/// shell), stdout+stderr redirected to `log`, CPU and address-space
/// rlimits applied, and a waitpid watchdog that SIGKILLs the child when
/// it exceeds the compile budget. Returns true iff the child exited 0
/// within budget; a kill-on-overrun bumps jit.compile_timeouts and the
/// caller's fallback ladder takes over. The jit.hang fault site models a
/// wedged toolchain: the child parks in pause() instead of exec'ing, so
/// only the watchdog can reap it.
bool run_compiler(const std::string& src, const std::string& out,
                  const std::string& log) {
  // Decide the injected hang before fork: should_fail mutates the
  // process-wide injector, which the child must not touch.
  const bool hang = fault::should_fail(fault::kJitHang);
  if (hang) {
    obs::Metrics::instance().counter("fault.jit_hang").add(1);
    obs::trace_instant(obs::EventKind::FaultInjected, -1, -1, /*site=*/8,
                       0.0);
  }
  std::vector<std::string> words =
      split_argv(jit_compiler() + " " + jit_cflags());
  words.push_back("-x");
  words.push_back("c");
  words.push_back(src);
  words.push_back("-o");
  words.push_back(out);
  std::vector<char*> argv;
  argv.reserve(words.size() + 1);
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);

  const long budget_ms = jit_timeout_ms();
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Child (async-signal-safe calls only until exec). CPU seconds are a
    // belt-and-braces bound alongside the parent's wall-clock watchdog:
    // a spinning cc dies here even if the parent is descheduled.
    const long cpu_s = std::max(1L, (budget_ms + 999) / 1000);
    struct rlimit rl_cpu;
    rl_cpu.rlim_cur = static_cast<rlim_t>(cpu_s);
    rl_cpu.rlim_max = static_cast<rlim_t>(cpu_s + 1);
    setrlimit(RLIMIT_CPU, &rl_cpu);
    if (const long mb = jit_rlimit_as_mb(); mb > 0) {
      struct rlimit rl_as;
      rl_as.rlim_cur = static_cast<rlim_t>(mb) << 20;
      rl_as.rlim_max = static_cast<rlim_t>(mb) << 20;
      setrlimit(RLIMIT_AS, &rl_as);
    }
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      if (fd > 2) close(fd);
    }
    if (hang) {
      for (;;) pause();  // injected wedge: uses no CPU, never exits
    }
    execvp(argv[0], argv.data());
    _exit(127);
  }
  // Parent: WNOHANG poll with a wall-clock deadline, SIGKILL on overrun.
  const auto t0 = std::chrono::steady_clock::now();
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    if (elapsed >= budget_ms) {
      kill(pid, SIGKILL);
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      obs::Metrics::instance().counter("jit.compile_timeouts").add(1);
      return false;
    }
    usleep(2000);
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Exclusive advisory lock on `path` (created if absent), released when
/// the descriptor closes on scope exit. Best-effort: if the lock cannot
/// be taken the caller simply races as before — load_module's ABI/key
/// validation keeps a torn concurrent read from ever being trusted.
class FileLock {
public:
  explicit FileLock(const std::string& path)
      : fd_(open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)) {
    if (fd_ >= 0 && flock(fd_, LOCK_EX) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~FileLock() {
    if (fd_ >= 0) close(fd_);  // close drops the flock
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  bool held() const { return fd_ >= 0; }

private:
  int fd_;
};

/// fsync a file by path — used on the compiler child's output before the
/// publishing rename.
bool fsync_path(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  return ok;
}

/// Best-effort fsync of the directory holding `path`, making a rename
/// into it durable.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
}

/// Durable atomic publish: write a pid-suffixed temp, fsync the data
/// BEFORE the rename (a rename that becomes durable ahead of its data
/// can publish a torn file after a crash), rename into place, fsync the
/// directory. Any failure — short write, ENOSPC, the injected
/// cache.enospc model of either — unlinks the temp and returns false;
/// callers degrade to the interpreter.
bool write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  const int fd =
      open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  if (fault::should_fail(fault::kCacheEnospc)) {
    obs::Metrics::instance().counter("fault.cache_enospc").add(1);
    obs::trace_instant(obs::EventKind::FaultInjected, -1, -1, /*site=*/10,
                       0.0);
    ok = false;  // models write() returning ENOSPC mid-stream
  }
  std::size_t off = 0;
  while (ok && off < content.size()) {
    const ssize_t n = write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok && fsync(fd) != 0) ok = false;
  if (close(fd) != 0) ok = false;
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

// ---------------------------------------------------------------------
// Content hashing (FNV-1a 64).
// ---------------------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    for (char ch : s) byte(static_cast<std::uint8_t>(ch));
    byte(0);
  }
};

std::uint64_t hash_bytecode(int ndim, const ir::Bytecode& bc) {
  Fnv1a fp;
  fp.byte(static_cast<std::uint8_t>(ndim));
  fp.u64(bc.size());
  for (const ir::BcOp& op : bc) {
    fp.byte(static_cast<std::uint8_t>(op.kind));
    if (op.kind == ir::BcKind::PushConst) fp.f64(op.c);
    if (op.kind == ir::BcKind::Load) {
      fp.byte(static_cast<std::uint8_t>(op.slot));
      for (int d = 0; d < ndim; ++d) {
        fp.u64(static_cast<std::uint64_t>(op.idx[d].num));
        fp.u64(static_cast<std::uint64_t>(op.idx[d].den));
        fp.u64(static_cast<std::uint64_t>(op.idx[d].off));
      }
    }
  }
  return fp.h;
}

std::string format_key(const char* tag, std::uint64_t content_hash) {
  // The compile command participates so a flag or compiler change never
  // reuses an object built under different codegen settings.
  Fnv1a cmd;
  cmd.str(jit_compiler());
  cmd.str(jit_cflags());
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s-%016" PRIx64 "-a%d-%08x", tag,
                content_hash, ir::kJitAbiVersion,
                static_cast<std::uint32_t>(cmd.h));
  return buf;
}

// ---------------------------------------------------------------------
// Kernel emission.
// ---------------------------------------------------------------------

/// One kernel to emit: a register program specialized to (ndim, step,
/// phase). `name` is the exported C symbol.
struct KernelSpec {
  std::string name;
  int ndim = 2;
  ir::RegProgram rp;
  std::array<index_t, 3> step{1, 1, 1};
  std::array<index_t, 3> phase{0, 0, 0};
};

bool emittable(const ir::RegProgram& rp, int ndim) {
  if (rp.empty() || rp.result < 0) return false;
  if (ndim < 1 || ndim > 3) return false;
  auto check = [&](const std::vector<ir::RegInstr>& instrs) {
    for (const ir::RegInstr& in : instrs) {
      if (in.kind == ir::RegOpKind::Const && !std::isfinite(in.c)) return false;
      if (in.kind == ir::RegOpKind::Load &&
          (in.slot < 0 || in.slot >= ir::kJitMaxSrcSlots)) {
        return false;
      }
    }
    return true;
  };
  return check(rp.prologue) && check(rp.body);
}

std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Sampled index floor(num·pos/den) + off as C text; folds the
/// identity map and integer offsets into plain arithmetic.
std::string sampled(const std::string& pos, int num, int den, index_t off) {
  std::ostringstream os;
  if (den == 1) {
    if (num == 1) {
      os << pos;
    } else {
      os << num << " * (" << pos << ")";
    }
  } else {
    os << "pmg_floord(" << num << " * (" << pos << "), " << den << ")";
  }
  if (off > 0) os << " + " << off;
  if (off < 0) os << " - " << -off;
  return os.str();
}

const char* op_char(ir::RegOpKind k) {
  switch (k) {
    case ir::RegOpKind::Add: return "+";
    case ir::RegOpKind::Sub: return "-";
    case ir::RegOpKind::Mul: return "*";
    case ir::RegOpKind::Div: return "/";
    default: return "?";
  }
}

/// Emit one non-Load instruction as a single-operation statement.
/// One IEEE operation per statement plus -ffp-contract=off is what
/// makes the generated code bit-identical to the stack interpreter.
void emit_scalar_stmt(std::ostream& os, const std::string& ind,
                      const ir::RegInstr& in) {
  os << ind << "const double r" << in.dst << " = ";
  switch (in.kind) {
    case ir::RegOpKind::Const:
      os << hexd(in.c);
      break;
    case ir::RegOpKind::Neg:
      os << "-r" << in.a;
      break;
    default:
      os << "r" << in.a << " " << op_char(in.kind) << " r" << in.b;
      break;
  }
  os << ";\n";
}

void emit_kernel(std::ostream& os, const KernelSpec& ks) {
  const int nd = ks.ndim;
  const int in = nd - 1;  // innermost (contiguous) logical dim
  const index_t si = ks.step[in];

  os << "void " << ks.name
     << "(double* restrict out, const pmg_i64* restrict oorg,\n"
     << "    const pmg_i64* restrict ostr, const pmg_src* restrict src,\n"
     << "    const pmg_i64* restrict lo, const pmg_i64* restrict hi) {\n";

  // Lattice-restricted bounds; (step, phase) are baked per parity case.
  for (int d = 0; d < nd; ++d) {
    if (ks.step[d] == 1) {
      os << "  const pmg_i64 b" << d << " = lo[" << d << "];\n";
    } else {
      os << "  const pmg_i64 b" << d << " = lo[" << d << "] + ((("
         << ks.phase[d] << " - lo[" << d << "]) % " << ks.step[d] << ") + "
         << ks.step[d] << ") % " << ks.step[d] << ";\n";
    }
    os << "  if (b" << d << " > hi[" << d << "]) return;\n";
  }
  os << "  const pmg_i64 n = (hi[" << in << "] - b" << in << ")";
  if (si != 1) os << " / " << si;
  os << " + 1;\n";

  // Hoisted loop-invariant registers (the program's prologue).
  for (const ir::RegInstr& instr : ks.rp.prologue) {
    emit_scalar_stmt(os, "  ", instr);
  }

  // Outer loops over the non-contiguous logical dims.
  std::string ind = "  ";
  for (int d = 0; d < in; ++d) {
    os << ind << "for (pmg_i64 x" << d << " = b" << d << "; x" << d
       << " <= hi[" << d << "]; x" << d << " += " << ks.step[d] << ") {\n";
    ind += "  ";
  }

  // Per-load row pointers: outer sampled offsets resolved here, the
  // innermost advance strength-reduced to a constant when affine
  // (den | num·step; the unit inner stride is baked).
  int load_ord = 0;
  std::vector<bool> affine;
  std::vector<index_t> advance;
  for (const ir::RegInstr& instr : ks.rp.body) {
    if (instr.kind != ir::RegOpKind::Load) continue;
    const int k = load_ord++;
    const ir::LoadIndex& li = instr.idx[in];
    const bool aff = (static_cast<index_t>(li.num) * si) % li.den == 0;
    affine.push_back(aff);
    advance.push_back(aff ? (static_cast<index_t>(li.num) * si / li.den) : 0);
    os << ind << "const double* restrict p" << k << " = src[" << instr.slot
       << "].ptr";
    for (int d = 0; d < in; ++d) {
      os << "\n" << ind << "    + ((" << sampled("x" + std::to_string(d),
                                                 instr.idx[d].num,
                                                 instr.idx[d].den,
                                                 instr.idx[d].off)
         << ") - src[" << instr.slot << "].origin[" << d << "]) * src["
         << instr.slot << "].stride[" << d << "]";
    }
    if (aff) {
      os << "\n" << ind << "    + ((" << sampled("b" + std::to_string(in),
                                                 li.num, li.den, li.off)
         << ") - src[" << instr.slot << "].origin[" << in << "])";
    }
    os << ";\n";
  }

  os << ind << "double* restrict po = out";
  for (int d = 0; d < in; ++d) {
    os << " + (x" << d << " - oorg[" << d << "]) * ostr[" << d << "]";
  }
  os << " + (b" << in << " - oorg[" << in << "]);\n";

  os << ind << "#pragma omp simd\n";
  os << ind << "for (pmg_i64 u = 0; u < n; ++u) {\n";
  const std::string bind = ind + "  ";
  load_ord = 0;
  for (const ir::RegInstr& instr : ks.rp.body) {
    if (instr.kind == ir::RegOpKind::Load) {
      const int k = load_ord++;
      os << bind << "const double r" << instr.dst << " = p" << k << "[";
      if (affine[static_cast<std::size_t>(k)]) {
        const index_t adv = advance[static_cast<std::size_t>(k)];
        if (adv == 1) {
          os << "u";
        } else {
          os << "u * " << adv;
        }
      } else {
        // floor(num·x/den) not affine in u (÷2 interpolation maps at
        // unit step): exact per-point index, unit stride baked.
        const ir::LoadIndex& li = instr.idx[in];
        std::string pos = "b" + std::to_string(in) + " + u";
        if (si != 1) pos += " * " + std::to_string(si);
        os << sampled(pos, li.num, li.den, li.off) << " - src[" << instr.slot
           << "].origin[" << in << "]";
      }
      os << "];\n";
    } else {
      emit_scalar_stmt(os, bind, instr);
    }
  }
  os << bind << "po[";
  if (si == 1) {
    os << "u";
  } else {
    os << "u * " << si;
  }
  os << "] = r" << ks.rp.result << ";\n";
  os << ind << "}\n";

  for (int d = in - 1; d >= 0; --d) {
    ind.resize(ind.size() - 2);
    os << ind << "}\n";
  }
  os << "}\n";
}

std::string render_module(const std::string& key,
                          const std::vector<KernelSpec>& specs) {
  std::ostringstream os;
  os << "/* PolyMG JIT kernel module (generated; do not edit).\n"
     << " * key: " << key << "\n"
     << " * kernels: " << specs.size() << "\n"
     << " */\n"
     << "typedef long long pmg_i64;\n"
     << "typedef struct {\n"
     << "  const double* ptr;\n"
     << "  pmg_i64 origin[3];\n"
     << "  pmg_i64 stride[3];\n"
     << "} pmg_src;\n"
     << "static inline pmg_i64 pmg_floord(pmg_i64 a, pmg_i64 b) {\n"
     << "  pmg_i64 q = a / b;\n"
     << "  const pmg_i64 r = a % b;\n"
     << "  if (r != 0 && ((r < 0) != (b < 0))) --q;\n"
     << "  return q;\n"
     << "}\n"
     << "const int pmg_abi_version = " << ir::kJitAbiVersion << ";\n"
     << "const char pmg_key[] = \"" << key << "\";\n";
  for (const KernelSpec& ks : specs) {
    os << "\n";
    emit_kernel(os, ks);
  }
  return os.str();
}

// ---------------------------------------------------------------------
// Module loading and the two-level cache.
// ---------------------------------------------------------------------

/// A dlopen'd kernel module; dlclose on destruction (plans keep the
/// module alive through CompiledPipeline::jit_module).
class JitModule {
public:
  explicit JitModule(void* handle) : handle_(handle) {}
  ~JitModule() {
    if (handle_ != nullptr) dlclose(handle_);
  }
  JitModule(const JitModule&) = delete;
  JitModule& operator=(const JitModule&) = delete;

  ir::JitKernelFn fn(const std::string& name) const {
    return reinterpret_cast<ir::JitKernelFn>(dlsym(handle_, name.c_str()));
  }
  void* raw(const char* name) const { return dlsym(handle_, name); }

private:
  void* handle_;
};

std::map<std::string, std::shared_ptr<const JitModule>>& module_table() {
  static std::map<std::string, std::shared_ptr<const JitModule>> table;
  return table;
}

/// dlopen + validate a cached object: the embedded ABI version and key
/// must match, so stale entries from an older build (or a corrupted
/// file) are rejected — the caller unlinks and recompiles once.
std::shared_ptr<const JitModule> load_module(const std::string& so_path,
                                             const std::string& key) {
  void* h = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) return nullptr;
  auto mod = std::make_shared<const JitModule>(h);
  const int* abi = static_cast<const int*>(mod->raw("pmg_abi_version"));
  const char* k = static_cast<const char*>(mod->raw("pmg_key"));
  if (abi == nullptr || *abi != ir::kJitAbiVersion || k == nullptr ||
      key != k) {
    return nullptr;  // dtor dlcloses
  }
  return mod;
}

/// Memory -> disk -> compile. Returns null on any failure rung; the
/// caller records the fallback. Serialized on the global mutex —
/// compiles are rare and cold-path only.
std::shared_ptr<const JitModule> acquire_module(
    const std::string& key, int nkernels,
    const std::function<std::string()>& source) {
  auto& m = obs::Metrics::instance();
  std::lock_guard<std::mutex> lock(jit_mutex());
  auto& table = module_table();
  if (auto it = table.find(key); it != table.end()) {
    m.counter("jit.mem_hits").add(1);
    obs::trace_instant(obs::EventKind::JitCacheHit, -1, -1, 1, nkernels);
    return it->second;
  }
  const std::string dir = cache_dir_locked();
  const std::string so = dir + "/" + key + ".so";
  // Cross-process compile lock: processes racing the same key serialize
  // on a per-key flock; the losers wake to find the winner's .so already
  // on disk and take the disk-hit path below, so N concurrent processes
  // perform exactly one compile. Best-effort — without the lock the race
  // is merely wasteful, never unsafe (each publishes via its own
  // pid-suffixed temp + rename).
  FileLock compile_lock(so + ".lock");
  std::error_code ec;
  if (std::filesystem::exists(so, ec)) {
    if (auto mod = load_module(so, key)) {
      table.emplace(key, mod);
      m.counter("jit.disk_hits").add(1);
      obs::trace_instant(obs::EventKind::JitCacheHit, -1, -1, 0, nkernels);
      return mod;
    }
    m.counter("jit.stale_rejects").add(1);
    std::remove(so.c_str());  // stale/corrupt: rebuild below
  }
  if (fault::should_fail(fault::kJitCompile)) return nullptr;
  const std::int64_t t0 = obs::trace_enabled() ? obs::trace_now_ns() : -1;
  const std::string csrc = dir + "/" + key + ".c";
  if (!write_file_atomic(csrc, source())) return nullptr;
  const std::string tmp = so + ".tmp." + std::to_string(getpid());
  const std::string log = dir + "/" + key + ".log";
  if (!run_compiler(csrc, tmp, log)) {
    std::remove(tmp.c_str());
    m.counter("jit.compile_failures").add(1);
    return nullptr;
  }
  // Same durability order as write_file_atomic: the object's bytes reach
  // disk before the rename publishes its name.
  if (!fsync_path(tmp)) {
    std::remove(tmp.c_str());
    return nullptr;
  }
  if (std::rename(tmp.c_str(), so.c_str()) != 0) {
    std::remove(tmp.c_str());
    return nullptr;
  }
  fsync_parent_dir(so);
  auto mod = load_module(so, key);
  if (mod == nullptr) {
    std::remove(so.c_str());
    return nullptr;
  }
  m.counter("jit.compiles").add(1);
  obs::trace_span(obs::EventKind::JitCompile, t0, -1, -1, -1, nkernels);
  table.emplace(key, mod);
  return mod;
}

/// Bookkeeping for every fallback rung past the mode gates.
bool note_fallback(bool loud, const char* why) {
  obs::Metrics::instance().counter("jit.fallbacks").add(1);
  obs::trace_instant(obs::EventKind::JitFallback, -1, -1, -1, 0.0);
  if (loud) {
    std::fprintf(stderr,
                 "polymg: jit specialization fell back to the "
                 "interpreter (%s)\n",
                 why);
  }
  return false;
}

/// Kernels of one plan in emission/binding order. Skips definitions the
/// emitter cannot specialize (they keep their interpreted dispatch).
std::vector<KernelSpec> collect_kernels(const opt::CompiledPipeline& plan) {
  std::vector<KernelSpec> specs;
  for (std::size_t f = 0; f < plan.pipe.funcs.size(); ++f) {
    const ir::FunctionDecl& fn = plan.pipe.funcs[f];
    const ir::LoweredFunc& lf = plan.lowered[f];
    for (std::size_t c = 0; c < lf.defs.size(); ++c) {
      KernelSpec ks;
      ks.name = "pmg_k" + std::to_string(f) + "_" + std::to_string(c);
      ks.ndim = fn.ndim;
      if (fn.parity_piecewise) {
        ks.step = {2, 2, 2};
        for (int d = 0; d < fn.ndim; ++d) {
          ks.phase[d] = (c >> (fn.ndim - 1 - d)) & 1;
        }
      }
      const ir::LoweredDef& def = lf.defs[c];
      // Linearizable definitions keep the tap-loop: it already runs at
      // specialized-kernel speed, and swapping it for a jit kernel (in
      // register-program order) would change the summation order — the
      // guarded oracle's reference plan runs the same tap-loop, and its
      // fallback results are required to match the optimized plan bit
      // for bit. The gap the JIT closes lives in the defs the linearizer
      // rejects, which otherwise run on the interpreter. Per-def headroom
      // for linear stencils is still measured via jit_kernel_for_def in
      // bench_kernels.
      if (def.linear.has_value()) continue;
      ks.rp = ir::compile_regprog(def.bytecode);
      if (!emittable(ks.rp, fn.ndim)) continue;
      specs.push_back(std::move(ks));
    }
  }
  return specs;
}

std::string plan_module_key(const opt::CompiledPipeline& plan) {
  return format_key("pmg", opt::kernel_fingerprint(plan));
}

}  // namespace

opt::JitMode jit_mode() {
  return static_cast<opt::JitMode>(g_mode.load(std::memory_order_relaxed));
}

void set_jit_mode(opt::JitMode m) {
  g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
}

opt::JitMode parse_jit_mode(const std::string& s, bool* ok) {
  if (ok != nullptr) *ok = true;
  if (s == "off") return opt::JitMode::Off;
  if (s == "auto") return opt::JitMode::Auto;
  if (s == "on") return opt::JitMode::On;
  if (ok != nullptr) *ok = false;
  return opt::JitMode::Auto;
}

std::string emit_jit_c(const opt::CompiledPipeline& plan) {
  return render_module(plan_module_key(plan), collect_kernels(plan));
}

bool jit_specialize(opt::CompiledPipeline& plan) {
  if (plan.jit_module != nullptr) return true;  // already specialized
  const opt::JitMode process = jit_mode();
  if (process == opt::JitMode::Off || plan.opts.jit == opt::JitMode::Off) {
    return false;  // deliberate opt-out, not a fallback
  }
  const bool loud =
      process == opt::JitMode::On || plan.opts.jit == opt::JitMode::On;
  const std::vector<KernelSpec> specs = collect_kernels(plan);
  if (specs.empty()) {
    // Nothing to specialize (every def is linear, i.e. already on the
    // tap-loop, or unemittable) is a structural property of the plan,
    // not a failure: no fallback accounting, but --jit=on users get
    // told why their flag was a no-op.
    if (loud) {
      std::fprintf(stderr,
                   "polymg: jit specialization found no specializable "
                   "kernels (linear defs keep the tap-loop)\n");
    }
    return false;
  }
  const std::string key = plan_module_key(plan);
  auto mod =
      acquire_module(key, static_cast<int>(specs.size()),
                     [&] { return render_module(key, specs); });
  if (mod == nullptr) {
    return note_fallback(loud, "kernel module unavailable (no toolchain, "
                               "compile failure, or injected fault)");
  }
  int bound = 0;
  for (std::size_t f = 0; f < plan.lowered.size(); ++f) {
    for (std::size_t c = 0; c < plan.lowered[f].defs.size(); ++c) {
      ir::JitKernelFn fn = mod->fn("pmg_k" + std::to_string(f) + "_" +
                                   std::to_string(c));
      plan.lowered[f].defs[c].jit = fn;
      if (fn != nullptr) ++bound;
    }
  }
  if (bound == 0) return note_fallback(loud, "no kernels resolved");
  plan.jit_module = std::shared_ptr<const void>(mod, mod.get());
  return true;
}

int jit_bound_kernels(const opt::CompiledPipeline& plan) {
  int n = 0;
  for (const ir::LoweredFunc& lf : plan.lowered) {
    for (const ir::LoweredDef& d : lf.defs) n += d.jit != nullptr ? 1 : 0;
  }
  return n;
}

JitKernel jit_kernel_for_def(int ndim, const ir::Bytecode& bc) {
  if (jit_mode() == opt::JitMode::Off) return {};
  KernelSpec ks;
  ks.name = "pmg_k0_0";
  ks.ndim = ndim;
  ks.rp = ir::compile_regprog(bc);
  if (!emittable(ks.rp, ndim)) return {};
  const std::string key = format_key("pmgdef", hash_bytecode(ndim, bc));
  std::vector<KernelSpec> specs;
  specs.push_back(std::move(ks));
  auto mod = acquire_module(key, 1,
                            [&] { return render_module(key, specs); });
  if (mod == nullptr) {
    note_fallback(false, "def kernel unavailable");
    return {};
  }
  JitKernel k;
  k.fn = mod->fn("pmg_k0_0");
  k.module = std::shared_ptr<const void>(mod, mod.get());
  if (k.fn == nullptr) return {};
  return k;
}

bool jit_toolchain_available() {
  std::lock_guard<std::mutex> lock(jit_mutex());
  const std::string dir = cache_dir_locked();
  const std::string tag = std::to_string(getpid());
  const std::string src = dir + "/probe-" + tag + ".c";
  const std::string so = dir + "/probe-" + tag + ".so";
  const std::string log = dir + "/probe-" + tag + ".log";
  if (!write_file_atomic(src, "int pmg_probe(void) { return 1; }\n")) {
    return false;
  }
  const bool ok = run_compiler(src, so, log);
  std::remove(src.c_str());
  std::remove(so.c_str());
  std::remove(log.c_str());
  return ok;
}

void set_jit_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(jit_mutex());
  cache_dir_storage() = dir;
}

std::string jit_cache_dir() {
  std::lock_guard<std::mutex> lock(jit_mutex());
  return cache_dir_locked();
}

void jit_clear_memory_cache() {
  std::lock_guard<std::mutex> lock(jit_mutex());
  module_table().clear();
}

}  // namespace polymg::codegen
