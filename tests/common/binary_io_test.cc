#include "common/binary_io.h"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/scoped_temp_dir.h"

namespace netout {
namespace {

TEST(BinaryIoTest, U64RoundTrip) {
  std::string buf;
  AppendU64(&buf, 0);
  AppendU64(&buf, 1);
  AppendU64(&buf, std::numeric_limits<std::uint64_t>::max());
  AppendU64(&buf, 0x0123456789abcdefULL);
  EXPECT_EQ(buf.size(), 32u);
  Cursor cur(buf);
  EXPECT_EQ(cur.ReadU64().value(), 0u);
  EXPECT_EQ(cur.ReadU64().value(), 1u);
  EXPECT_EQ(cur.ReadU64().value(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(cur.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(cur.AtEnd());
}

TEST(BinaryIoTest, U32RoundTrip) {
  std::string buf;
  AppendU32(&buf, 7);
  AppendU32(&buf, std::numeric_limits<std::uint32_t>::max());
  Cursor cur(buf);
  EXPECT_EQ(cur.ReadU32().value(), 7u);
  EXPECT_EQ(cur.ReadU32().value(), std::numeric_limits<std::uint32_t>::max());
}

TEST(BinaryIoTest, DoubleRoundTrip) {
  std::string buf;
  AppendDouble(&buf, 3.141592653589793);
  AppendDouble(&buf, -0.0);
  AppendDouble(&buf, std::numeric_limits<double>::infinity());
  Cursor cur(buf);
  EXPECT_DOUBLE_EQ(cur.ReadDouble().value(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(cur.ReadDouble().value(), -0.0);
  EXPECT_TRUE(std::isinf(cur.ReadDouble().value()));
}

TEST(BinaryIoTest, StringRoundTrip) {
  std::string buf;
  AppendString(&buf, "hello");
  AppendString(&buf, "");
  AppendString(&buf, std::string("\0binary\xff", 8));
  Cursor cur(buf);
  EXPECT_EQ(cur.ReadString().value(), "hello");
  EXPECT_EQ(cur.ReadString().value(), "");
  EXPECT_EQ(cur.ReadString().value(), std::string("\0binary\xff", 8));
}

TEST(BinaryIoTest, TruncatedReadsFailWithCorruption) {
  std::string buf;
  AppendU32(&buf, 5);
  {
    Cursor cur(buf);
    auto r = cur.ReadU64();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  std::string buf2;
  AppendU64(&buf2, 100);  // string claims 100 bytes, none present
  {
    Cursor cur(buf2);
    auto r = cur.ReadString();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(BinaryIoTest, FileRoundTrip) {
  const ScopedTempDir tmp("netout_binio");
  const std::string path = tmp.File("file");
  ASSERT_TRUE(WriteStringToFile(path, "payload bytes").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "payload bytes");
}

TEST(BinaryIoTest, MissingFileIsIoError) {
  auto r = ReadFileToString("/nonexistent/definitely/missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(BinaryIoTest, ChecksumWrapRoundTrip) {
  const std::string wrapped = WrapWithChecksum("MAGIC678", "the payload");
  auto unwrapped = UnwrapChecked("MAGIC678", wrapped);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(unwrapped.value(), "the payload");
}

TEST(BinaryIoTest, WrongMagicRejected) {
  const std::string wrapped = WrapWithChecksum("MAGIC678", "x");
  auto r = UnwrapChecked("OTHERMAG", wrapped);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, BitFlipRejected) {
  std::string wrapped = WrapWithChecksum("MAGIC678", "sensitive payload");
  wrapped[20] ^= 0x01;  // flip one payload bit
  auto r = UnwrapChecked("MAGIC678", wrapped);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, TruncatedContainerRejected) {
  std::string wrapped = WrapWithChecksum("MAGIC678", "sensitive payload");
  wrapped.resize(wrapped.size() - 3);
  auto r = UnwrapChecked("MAGIC678", wrapped);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

// A pipe delivers reads in kernel-buffer-sized chunks, so a transfer
// larger than the pipe capacity forces ReadFull/WriteFull through their
// short-transfer loops — the exact situation the old single-call code
// mishandled.
TEST(BinaryIoFdTest, FullTransferAcrossPipeChunks) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 1315423911u);
  }
  std::thread writer([&] {
    EXPECT_TRUE(WriteFull(fds[1], payload.data(), payload.size()).ok());
    ::close(fds[1]);
  });
  std::string got(payload.size(), '\0');
  std::size_t bytes_read = 0;
  ASSERT_TRUE(ReadFull(fds[0], got.data(), got.size(), &bytes_read).ok());
  writer.join();
  EXPECT_EQ(bytes_read, payload.size());
  EXPECT_EQ(got, payload);
  ::close(fds[0]);
}

TEST(BinaryIoFdTest, ReadFullReportsShortCountAtEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFull(fds[1], "abc", 3).ok());
  ::close(fds[1]);
  char buf[16];
  std::size_t bytes_read = 0;
  ASSERT_TRUE(ReadFull(fds[0], buf, sizeof(buf), &bytes_read).ok());
  EXPECT_EQ(bytes_read, 3u);
  EXPECT_EQ(std::string_view(buf, 3), "abc");
  ::close(fds[0]);
}

TEST(BinaryIoFdTest, ReadFdToStringDrainsToEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string payload(300000, 'x');
  payload += std::string("\0\xff tail", 7);
  std::thread writer([&] {
    EXPECT_TRUE(WriteFull(fds[1], payload.data(), payload.size()).ok());
    ::close(fds[1]);
  });
  auto got = ReadFdToString(fds[0]);
  writer.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), payload);
  ::close(fds[0]);
}

TEST(BinaryIoFdTest, WriteToBadFdIsIoError) {
  EXPECT_EQ(WriteFull(-1, "x", 1).code(), StatusCode::kIoError);
  std::size_t bytes_read = 0;
  char buf[1];
  EXPECT_EQ(ReadFull(-1, buf, 1, &bytes_read).code(), StatusCode::kIoError);
}

TEST(AtomicWriteTest, RoundTripAndNoTempLeftover) {
  const ScopedTempDir tmp("netout_binio");
  const std::string path = tmp.File("atomic");
  ASSERT_TRUE(WriteStringToFileAtomic(path, "v1").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "v1");
  // Overwrite must swap indivisibly and leave no *.tmp.* debris behind.
  ASSERT_TRUE(WriteStringToFileAtomic(path, "version two").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "version two");
  const auto dir = std::filesystem::path(path).parent_path();
  const auto stem = std::filesystem::path(path).filename().string();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(stem + ".tmp."), std::string::npos)
        << "temp file leaked: " << name;
  }
}

TEST(AtomicWriteTest, ConcurrentSavesOfSamePathAllSucceed) {
  // Two threads saving one path must not collide on the temp file's
  // O_EXCL open: the temp name carries a per-call serial, not just the
  // pid. Whichever rename lands last wins, but every call succeeds.
  const ScopedTempDir tmp("netout_binio");
  const std::string path = tmp.File("atomic_concurrent");
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string payload = "writer-" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        if (!WriteStringToFileAtomic(path, payload).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const auto final_content = ReadFileToString(path);
  ASSERT_TRUE(final_content.ok());
  EXPECT_EQ(final_content.value().rfind("writer-", 0), 0u);
}

TEST(AtomicWriteTest, MissingDirectoryFailsWithoutCreatingTarget) {
  const std::string path = "/nonexistent/definitely/missing/file.bin";
  EXPECT_EQ(WriteStringToFileAtomic(path, "x").code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace netout
