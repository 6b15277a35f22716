// The daemon under test as a child process: the shipped acornd binary,
// started with explicit flags, so its threads and memory stay apart from
// the load generator's and it can be SIGKILLed like a real crash.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "service/client.hpp"

namespace perfbench {

class DaemonProcess {
 public:
  /// `args` follow the binary name; `socket` is the --unix path the
  /// args name (relative to the working directory). stderr goes to
  /// `log_path`.
  DaemonProcess(std::string exe, std::vector<std::string> args,
                std::string socket, std::string log_path);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// posix_spawn. Throws std::runtime_error when the binary cannot be
  /// started.
  void start();
  /// Connect to the daemon's socket, retrying until it listens. Throws
  /// when the child exits or `timeout_s` passes first.
  acorn::service::Client connect(double timeout_s = 30.0);
  /// SIGKILL and reap. No-op when not running.
  void kill9();
  /// Reap after a Shutdown request; SIGKILLs after `timeout_s`.
  /// Returns the exit status (-1 when it had to be killed).
  int wait_exit(double timeout_s = 30.0);
  bool running() const { return pid_ > 0; }
  /// The child's peak resident set (VmHWM) in KiB, 0 if unreadable.
  long peak_rss_kb() const;

 private:
  std::string exe_;
  std::vector<std::string> args_;
  std::string socket_;
  std::string log_path_;
  pid_t pid_ = -1;
};

/// Seconds on the steady clock.
double now_s();

/// This process's own VmHWM in KiB.
long self_peak_rss_kb();

/// Median fdatasync latency of a one-byte overwrite in `dir`, in
/// microseconds (negative when the probe file cannot be made).
double probe_fdatasync_us(const std::string& dir, int iters);

/// `rm -rf` without a shell.
void remove_tree(const std::string& path);

}  // namespace perfbench
