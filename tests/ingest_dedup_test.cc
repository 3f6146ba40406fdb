// Ingest dedup over user-id patterns the bitmap-plus-hash-set UserSet must
// all handle: dense from 0, strided by 2^20, random 64-bit, and ids at and
// near UINT64_MAX. Frames repeat earlier users inside a batch and across
// batches and carry corrupt bytes; Ingest and IngestBatch at 1 and 4
// threads, durable and recovered, must decide every fate, count
// ingest_stats() and answer has_report exactly as a std::set reference
// does. UserSet's resident bytes stay O(ids) for the sparse patterns.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/protocol.h"
#include "engine/user_set.h"
#include "storage/fault_fs.h"

namespace ldp {
namespace {

constexpr uint64_t kIds = 1500;
constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

enum class Pattern { kDense, kStrided, kRandom, kNearMax };

std::string PatternName(Pattern p) {
  switch (p) {
    case Pattern::kDense:
      return "Dense";
    case Pattern::kStrided:
      return "Strided";
    case Pattern::kRandom:
      return "Random";
    case Pattern::kNearMax:
      return "NearMax";
  }
  return "?";
}

/// kIds distinct ids of the pattern.
std::vector<uint64_t> DistinctIds(Pattern p) {
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; i < kIds; ++i) {
    switch (p) {
      case Pattern::kDense:
        ids.push_back(i);
        break;
      case Pattern::kStrided:
        ids.push_back(i << 20);
        break;
      case Pattern::kRandom:
        ids.push_back(Mix64(i + 12345));
        break;
      case Pattern::kNearMax:
        // UINT64_MAX itself, its neighbours, and small ids between them.
        ids.push_back(i % 2 == 0 ? kMax - i / 2 : i / 2);
        break;
    }
  }
  return ids;
}

TEST(UserSetTest, MatchesAStdSetOnEveryPattern) {
  for (const Pattern p : {Pattern::kDense, Pattern::kStrided, Pattern::kRandom,
                          Pattern::kNearMax}) {
    UserSet users;
    std::set<uint64_t> reference;
    const std::vector<uint64_t> ids = DistinctIds(p);
    for (uint64_t i = 0; i < ids.size(); ++i) {
      // Every id twice: the repeat must be refused.
      for (const uint64_t id : {ids[i], ids[i / 2]}) {
        EXPECT_EQ(users.insert(id), reference.insert(id).second)
            << PatternName(p) << " id " << id;
      }
    }
    EXPECT_EQ(users.size(), reference.size()) << PatternName(p);
    for (const uint64_t id : ids) {
      EXPECT_TRUE(users.contains(id)) << PatternName(p) << " id " << id;
      for (const uint64_t probe : {id + 1, id - 1, id ^ (uint64_t{1} << 40)}) {
        EXPECT_EQ(users.contains(probe), reference.contains(probe))
            << PatternName(p) << " probe " << probe;
      }
    }
  }
}

TEST(UserSetTest, SparseIdsMoveIntoTheBitmapWhenItGrowsOverThem) {
  UserSet users;
  // 1000 is too far for a bitmap holding one id, so it is sparse at first;
  // the dense ids then grow the bitmap over it.
  EXPECT_TRUE(users.insert(1000));
  for (uint64_t id = 0; id < 2000; ++id) {
    EXPECT_EQ(users.insert(id), id != 1000) << id;
  }
  EXPECT_EQ(users.size(), 2000u);
  for (uint64_t id = 0; id < 2100; ++id) {
    EXPECT_EQ(users.contains(id), id < 2000) << id;
  }
}

TEST(UserSetTest, ResidentBytesStayLinearInTheIds) {
  for (const Pattern p : {Pattern::kDense, Pattern::kStrided, Pattern::kRandom,
                          Pattern::kNearMax}) {
    UserSet users;
    for (const uint64_t id : DistinctIds(p)) users.insert(id);
    // A std::unordered_set node alone is 16 bytes plus the allocator's
    // header and a bucket pointer; the hash set's worst case is 32 bytes
    // per id (8-byte slots just past a rehash, at a load of 1/4).
    EXPECT_LE(users.resident_bytes(), 32 * kIds + 256) << PatternName(p);
  }
  UserSet dense;
  for (uint64_t id = 0; id < (1u << 16); ++id) dense.insert(id);
  EXPECT_LE(dense.resident_bytes(), (1u << 16) / 8);  // one bit per id
}

Schema TestSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddOrdinal("age", 54).ok());
  EXPECT_TRUE(schema.AddCategorical("state", 6).ok());
  return schema;
}

struct Frames {
  CollectionSpec spec;
  std::vector<std::string> bytes;
  std::vector<uint64_t> users;
};

/// One frame per id, with repeats spliced in: every 5th frame repeats the
/// previous frame's user (an in-batch duplicate for all but batch starts),
/// every 7th a user from ~300 frames back (a cross-batch duplicate). Every
/// 11th frame is corrupt, and every 13th decodes but does not fit the spec
/// (no entries), so its user stays un-seen unless already accepted.
Frames MakeFrames(Pattern p) {
  Frames f;
  MechanismParams params;
  params.epsilon = 2.0;
  f.spec = CollectionSpec::FromSchema(TestSchema(), MechanismKind::kHio,
                                      params);
  const LdpClient client = LdpClient::Create(f.spec).ValueOrDie();
  Rng rng(51);
  const std::vector<uint64_t> ids = DistinctIds(p);
  for (uint64_t i = 0, next = 0; next < ids.size(); ++i) {
    uint64_t user;
    if (i % 5 == 4) {
      user = f.users.back();
    } else if (i % 7 == 6 && f.users.size() > 300) {
      user = f.users[f.users.size() - 300];
    } else {
      user = ids[next++];
    }
    const std::vector<uint32_t> values = {
        static_cast<uint32_t>(i % 54), static_cast<uint32_t>(i % 6)};
    std::string frame = i % 13 == 12
                            ? FrameReport(LdpReport{}.Serialize())
                            : client.EncodeUser(values, rng).ValueOrDie();
    if (i % 11 == 10) frame.back() ^= 0x5a;  // fails the frame checksum
    f.bytes.push_back(std::move(frame));
    f.users.push_back(user);
  }
  return f;
}

struct Expected {
  IngestStats stats;
  std::vector<StatusCode> fates;  // per frame, as Ingest returns it
  std::set<uint64_t> accepted;
};

Expected Reference(const Frames& f) {
  Expected e;
  for (uint64_t i = 0; i < f.users.size(); ++i) {
    if (i % 11 == 10) {
      ++e.stats.corrupt;
      e.fates.push_back(StatusCode::kParseError);
    } else if (e.accepted.contains(f.users[i])) {
      ++e.stats.duplicate;
      e.fates.push_back(StatusCode::kAlreadyExists);
    } else if (i % 13 == 12) {
      ++e.stats.rejected;
      e.fates.push_back(StatusCode::kInvalidArgument);
    } else {
      e.accepted.insert(f.users[i]);
      ++e.stats.accepted;
      e.fates.push_back(StatusCode::kOk);
    }
  }
  return e;
}

void ExpectMatches(const CollectionServer& server, const Frames& f,
                   const Expected& e, const std::string& what) {
  const IngestStats& stats = server.ingest_stats();
  EXPECT_EQ(stats.accepted, e.stats.accepted) << what;
  EXPECT_EQ(stats.duplicate, e.stats.duplicate) << what;
  EXPECT_EQ(stats.corrupt, e.stats.corrupt) << what;
  EXPECT_EQ(stats.rejected, e.stats.rejected) << what;
  EXPECT_EQ(server.num_reports(), e.accepted.size()) << what;
  for (const uint64_t user : f.users) {
    for (const uint64_t probe : {user, user + 1, user ^ (uint64_t{1} << 62)}) {
      EXPECT_EQ(server.has_report(probe), e.accepted.contains(probe))
          << what << " probe " << probe;
    }
  }
}

class IngestDedupTest : public ::testing::TestWithParam<Pattern> {};

TEST_P(IngestDedupTest, FatesMatchAStdSetAndSurviveRecovery) {
  const Frames f = MakeFrames(GetParam());
  const Expected e = Reference(f);
  ASSERT_GT(e.stats.duplicate, 0u);
  ASSERT_GT(e.stats.rejected, 0u);
  constexpr uint64_t kBatch = 64;
  for (const int threads : {1, 4}) {
    for (const bool batched : {false, true}) {
      const std::string what = PatternName(GetParam()) + " threads " +
                               std::to_string(threads) +
                               (batched ? " IngestBatch" : " Ingest");
      FaultFs fs;
      StorageOptions storage;
      storage.dir = "/campaign";
      storage.fs = &fs;
      storage.snapshot_every_frames = 700;  // a snapshot plus a WAL suffix
      {
        CollectionServer server =
            CollectionServer::CreateDurable(f.spec, storage, threads)
                .ValueOrDie();
        if (batched) {
          std::vector<CollectionServer::ReportFrame> frames;
          for (uint64_t i = 0; i < f.users.size(); ++i) {
            frames.push_back({f.bytes[i], f.users[i]});
          }
          const std::span<const CollectionServer::ReportFrame> all(frames);
          for (uint64_t b = 0; b < all.size(); b += kBatch) {
            ASSERT_TRUE(server
                            .IngestBatch(all.subspan(
                                b, std::min(kBatch, all.size() - b)))
                            .ok());
          }
        } else {
          for (uint64_t i = 0; i < f.users.size(); ++i) {
            EXPECT_EQ(server.Ingest(f.bytes[i], f.users[i]).code(),
                      e.fates[i])
                << what << " frame " << i;
          }
        }
        ExpectMatches(server, f, e, what);
        ASSERT_TRUE(server.last_snapshot_status().ok());
        ASSERT_TRUE(server.Flush().ok());
      }
      CollectionServer reopened =
          CollectionServer::CreateDurable(f.spec, storage, threads)
              .ValueOrDie();
      ASSERT_TRUE(reopened.recovery_info()->snapshot_loaded) << what;
      EXPECT_GT(reopened.recovery_info()->replayed_frames, 0u) << what;
      ExpectMatches(reopened, f, e, what + " recovered");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    UserIdPatterns, IngestDedupTest,
    ::testing::Values(Pattern::kDense, Pattern::kStrided, Pattern::kRandom,
                      Pattern::kNearMax),
    [](const ::testing::TestParamInfo<Pattern>& info) {
      return PatternName(info.param);
    });

}  // namespace
}  // namespace ldp
