// recvSome's spin-then-block receive over real socket pairs: the EOF,
// late-data, shutdown and timeout semantics it must keep from the plain
// blocking recv(2), its two spin hints, and the CPU bound that keeps a slow
// peer from costing a spinning core. service_test.cpp covers the same
// receive path inside a live oseld. Part of test_service, so the tsan
// preset runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include "service/socket.h"

namespace osel::service {
namespace {

using namespace std::chrono_literals;

/// A connected Unix stream pair.
std::array<Socket, 2> socketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

/// CPU time the calling thread has consumed.
double threadCpuSeconds() {
  timespec now{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

TEST(RecvSpin, PeerClosedBeforeTheWaitReturnsZero) {
  // The first non-blocking poll of the spin already sees the EOF.
  std::array<Socket, 2> pair = socketPair();
  pair[1].close();
  char byte = 0;
  EXPECT_EQ(recvSome(pair[0], &byte, 1), 0u);
}

TEST(RecvSpin, PeerClosingDuringTheSpinReturnsZero) {
  std::array<Socket, 2> pair = socketPair();
  std::thread closer([&] {
    std::this_thread::sleep_for(10us);
    pair[1].close();
  });
  char byte = 0;
  EXPECT_EQ(recvSome(pair[0], &byte, 1), 0u);
  closer.join();
}

TEST(RecvSpin, DataAfterTheBudgetArrivesThroughTheBlockingFallback) {
  std::array<Socket, 2> pair = socketPair();
  // 20 ms is 400 budgets: the spin has long given up and the thread is
  // parked in the blocking recv(2) when the bytes land.
  std::thread sender([&] {
    std::this_thread::sleep_for(20ms);
    sendAll(pair[1], "late");
  });
  char buffer[16] = {};
  const std::size_t got = recvSome(pair[0], buffer, sizeof(buffer));
  sender.join();
  EXPECT_EQ(std::string(buffer, got), "late");
  // The next wait (spin now off) still delivers, and still sees the close.
  sendAll(pair[1], "x");
  EXPECT_EQ(recvSome(pair[0], buffer, sizeof(buffer)), 1u);
  pair[1].close();
  EXPECT_EQ(recvSome(pair[0], buffer, sizeof(buffer)), 0u);
}

TEST(RecvSpin, ShutdownUnblocksASpinningAndABlockedWaiter) {
  // shutdown(2) of our own side is how Server::stop() wakes its workers.
  for (const auto delay : {0ms, 20ms}) {
    std::array<Socket, 2> pair = socketPair();
    std::atomic<std::size_t> got{99};
    std::thread waiter([&] {
      char byte = 0;
      got.store(recvSome(pair[0], &byte, 1));
    });
    std::this_thread::sleep_for(delay);
    pair[0].shutdownBoth();
    waiter.join();
    EXPECT_EQ(got.load(), 0u) << "after " << delay.count() << " ms";
  }
}

TEST(RecvSpin, ReceiveTimeoutStillThrows) {
  std::array<Socket, 2> pair = socketPair();
  setRecvTimeout(pair[0], 20);
  char byte = 0;
  EXPECT_THROW((void)recvSome(pair[0], &byte, 1), SocketError);
}

TEST(RecvSpin, SlowPeerTurnsTheSpinOff) {
  // A peer answering every ~1 ms outlasts each budget. Were the spin left
  // on, every wait would poll a whole budget first, so the receiver would
  // burn more than kWaits budgets of CPU; that is the bound. With the spin
  // off after the first slow wait, each wait costs a recv(2) and a wake-up:
  // 7-14 us on a 4-vCPU KVM guest, ~25 us under ThreadSanitizer.
  std::array<Socket, 2> pair = socketPair();
  constexpr int kWaits = 200;
  std::thread slowPeer([&] {
    for (int i = 0; i < kWaits; ++i) {
      std::this_thread::sleep_for(1ms);
      sendAll(pair[1], "z");
    }
  });
  char byte = 0;
  const double before = threadCpuSeconds();
  for (int i = 0; i < kWaits; ++i) ASSERT_EQ(recvSome(pair[0], &byte, 1), 1u);
  const double spent = threadCpuSeconds() - before;
  slowPeer.join();
  const double spinning =
      kWaits * std::chrono::duration<double>(kRecvSpinBudget).count();
  EXPECT_LT(spent, spinning)
      << "receiver spent " << spent * 1e6 << " us of CPU over " << kWaits
      << " slow waits; always spinning would be " << spinning * 1e6 << " us";
}

/// One recvSome wait on `receiver` that outlasts the budget: the peer
/// sends its byte 10 ms after the receiver announced the wait. Returns how
/// long the wait took, seen from outside.
std::chrono::steady_clock::duration slowWait(const Socket& receiver,
                                             const Socket& sender) {
  std::atomic<bool> waiting{false};
  std::thread peer([&] {
    while (!waiting.load()) std::this_thread::yield();
    std::this_thread::sleep_for(10ms);
    sendAll(sender, "s");
  });
  char byte = 0;
  waiting.store(true);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(recvSome(receiver, &byte, 1), 1u);
  const auto waited = std::chrono::steady_clock::now() - start;
  peer.join();
  return waited;
}

TEST(RecvSpin, OneFastWaitTurnsTheSpinBackOn) {
  std::array<Socket, 2> pair = socketPair();
  EXPECT_TRUE(pair[0].spinsNextWait()) << "a fresh socket spins";
  const auto waited = slowWait(pair[0], pair[1]);
  EXPECT_FALSE(pair[0].spinsNextWait()) << "a slow wait turns the spin off";
  // On a busy host that wait's spin may also have lost its CPU, pausing
  // spinning for at most kRecvSpinPauseFactor times the wait; let any such
  // pause run out.
  std::this_thread::sleep_for((kRecvSpinPauseFactor + 1) * waited);
  sendAll(pair[1], "f");
  char byte = 0;
  ASSERT_EQ(recvSome(pair[0], &byte, 1), 1u);
  EXPECT_TRUE(pair[0].spinsNextWait()) << "one fast wait turns it back on";
}

TEST(RecvSpin, MovesCarryTheWaitHint) {
  std::array<Socket, 2> pair = socketPair();
  slowWait(pair[0], pair[1]);
  ASSERT_FALSE(pair[0].spinsNextWait());

  Socket constructed(std::move(pair[0]));
  EXPECT_FALSE(constructed.spinsNextWait());
  EXPECT_TRUE(pair[0].spinsNextWait()) << "moved-from resets to a fresh one";
  Socket assigned;
  assigned = std::move(constructed);
  EXPECT_FALSE(assigned.spinsNextWait());
  EXPECT_TRUE(constructed.spinsNextWait());
}

/// Pins the calling thread to one CPU; false when the host refuses.
bool pinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

TEST(RecvSpin, ASpinThatLosesItsCpuPausesSpinning) {
  // A busy loop sharing the receiver's CPU takes it for a scheduler slice
  // at the receiver's first sched_yield(), far past the budget. That must
  // pause the spin for kRecvSpinPauseFactor times the wait, even across a
  // fast wait, which on its own would turn the spin back on.
  cpu_set_t allowed;
  ASSERT_EQ(::sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);

  std::atomic<bool> hogStarted{false};
  std::atomic<bool> hogRunning{true};
  std::thread hog([&] {
    (void)pinTo(cpu);
    hogStarted.store(true);
    while (hogRunning.load(std::memory_order_relaxed)) {
    }
  });
  while (!hogStarted.load()) std::this_thread::sleep_for(1ms);

  std::array<Socket, 2> pair = socketPair();
  bool pinned = false;
  bool pausedAfterFastWait = false;
  std::chrono::steady_clock::duration waited{};
  std::thread receiver([&] {
    pinned = pinTo(cpu);
    if (!pinned) return;
    const auto unpin = [&] {
      ::pthread_setaffinity_np(::pthread_self(), sizeof(allowed), &allowed);
    };
    const auto repin = [&] { (void)pinTo(cpu); };
    // A thread just moved onto the hog's CPU may be favoured by the
    // scheduler for a while and keep it across yields, so compete with the
    // hog first, and allow a few attempts for a yield to lose the CPU.
    for (int attempt = 0; attempt < 10 && !pausedAfterFastWait; ++attempt) {
      const auto burnUntil = std::chrono::steady_clock::now() + 20ms;
      while (std::chrono::steady_clock::now() < burnUntil) {
      }
      // Nothing arrives within the budget: the spin yields to the hog.
      waited = slowWait(pair[0], pair[1]);
      // The fast wait runs away from the hog, so that it stays fast.
      unpin();
      sendAll(pair[1], "b");
      char byte = 0;
      (void)recvSome(pair[0], &byte, 1);  // fast: the byte is already there
      pausedAfterFastWait = !pair[0].spinsNextWait();
      repin();
    }
  });
  receiver.join();
  hogRunning.store(false);
  hog.join();
  if (!pinned) GTEST_SKIP() << "cannot pin threads to CPU " << cpu;
  EXPECT_TRUE(pausedAfterFastWait);
  std::this_thread::sleep_for((kRecvSpinPauseFactor + 1) * waited);
  EXPECT_TRUE(pair[0].spinsNextWait()) << "the pause ends";
}

}  // namespace
}  // namespace osel::service
