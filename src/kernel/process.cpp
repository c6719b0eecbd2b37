#include "kernel/process.hpp"

#include "sim/contracts.hpp"

namespace mkos::kernel {

Process::Process(Pid pid, int home_quadrant)
    : pid_(pid), home_quadrant_(home_quadrant) {
  MKOS_EXPECTS(pid > 0);
  MKOS_EXPECTS(home_quadrant >= 0);
}

int Process::open_fd(std::string path, bool proxy_managed) {
  const int fd = next_fd_++;
  fds_.emplace(fd, Fd{std::move(path), proxy_managed});
  return fd;
}

bool Process::close_fd(int fd) { return fds_.erase(fd) > 0; }

const std::string* Process::fd_path(int fd) const {
  auto it = fds_.find(fd);
  return it == fds_.end() ? nullptr : &it->second.path;
}

bool Process::fd_is_proxy_managed(int fd) const {
  auto it = fds_.find(fd);
  return it != fds_.end() && it->second.proxy_managed;
}

}  // namespace mkos::kernel
