#include "child.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "measure.hpp"

namespace perfbench {

namespace {

long read_vm_hwm_kb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

}  // namespace

DaemonProcess::DaemonProcess(std::string exe, std::vector<std::string> args,
                             std::string socket, std::string log_path)
    : exe_(std::move(exe)),
      args_(std::move(args)),
      socket_(std::move(socket)),
      log_path_(std::move(log_path)) {}

DaemonProcess::~DaemonProcess() { kill9(); }

void DaemonProcess::start() {
  if (pid_ > 0) throw std::logic_error("daemon already running");
  ::unlink(socket_.c_str());
  std::vector<char*> argv;
  argv.push_back(exe_.data());
  for (std::string& a : args_) argv.push_back(a.data());
  argv.push_back(nullptr);
  // posix_spawn rather than fork: a restart does not pay for copying the
  // generator's page tables, which grow with its pre-generated inputs.
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  // Leave the generator's sockets behind: the daemon must not hold a
  // copy of a connection to an earlier instance.
  ::posix_spawn_file_actions_addclosefrom_np(&actions, 3);
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + exe_ + ": " + std::strerror(rc));
  }
  pid_ = pid;
}

acorn::service::Client DaemonProcess::connect(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (true) {
    try {
      return acorn::service::Client::connect_unix(socket_);
    } catch (const std::exception&) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("acornd exited during startup (see " +
                                 log_path_ + ")");
      }
      if (now_s() > deadline) {
        throw std::runtime_error("acornd did not listen on " + socket_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void DaemonProcess::kill9() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

int DaemonProcess::wait_exit(double timeout_s) {
  if (pid_ <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill9();
  return -1;
}

long DaemonProcess::peak_rss_kb() const {
  if (pid_ <= 0) return 0;
  return read_vm_hwm_kb("/proc/" + std::to_string(pid_) + "/status");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long self_peak_rss_kb() { return read_vm_hwm_kb("/proc/self/status"); }

double probe_fdatasync_us(const std::string& dir, int iters) {
  const std::string path = dir + "/fdatasync_probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return -1.0;
  const char byte = 'x';
  std::vector<double> us;
  for (int i = 0; i <= iters; ++i) {
    const double t0 = now_s();
    if (::pwrite(fd, &byte, 1, 0) != 1 || ::fdatasync(fd) != 0) break;
    if (i > 0) us.push_back(1e6 * (now_s() - t0));  // i == 0 warms up
  }
  ::close(fd);
  ::unlink(path.c_str());
  return us.empty() ? -1.0 : median(us);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
