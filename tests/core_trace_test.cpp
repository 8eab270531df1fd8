#include "core/trace.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "flow/materializer.h"
#include "util/id_codec.h"

namespace mscope::core {
namespace {

using util::msec;

/// Builds a two-tier warehouse holding one request's records and
/// materializes it through the flow layer, the product path every
/// request-level view reads.
class TraceFixture : public ::testing::Test {
 protected:
  TraceFixture() {
    auto& apache = db_.create_table(
        "ev_apache_web1", {{"req_id", db::DataType::kText},
                           {"ua_usec", db::DataType::kInt},
                           {"ud_usec", db::DataType::kInt},
                           {"ds_usec", db::DataType::kInt},
                           {"dr_usec", db::DataType::kInt}});
    apache.insert({db::Value{util::IdCodec::encode(7)},
                   db::Value{msec(0)}, db::Value{msec(10)},
                   db::Value{msec(1)}, db::Value{msec(9)}});
    auto& tomcat = db_.create_table(
        "ev_tomcat_app1", {{"req_id", db::DataType::kText},
                           {"ua_usec", db::DataType::kInt},
                           {"ud_usec", db::DataType::kInt},
                           {"ds0_usec", db::DataType::kInt},
                           {"dr0_usec", db::DataType::kInt},
                           {"ds1_usec", db::DataType::kInt},
                           {"dr1_usec", db::DataType::kInt}});
    tomcat.insert({db::Value{util::IdCodec::encode(7)},
                   db::Value{msec(1)}, db::Value{msec(9)},
                   db::Value{msec(2)}, db::Value{msec(4)},
                   db::Value{msec(5)}, db::Value{msec(8)}});

    flow::Deployment dep;
    dep.event_tables = {{"ev_apache_web1"}, {"ev_tomcat_app1"}};
    dep.services = {"apache", "tomcat"};
    result_ = flow::Materializer(db_, std::move(dep)).run();
  }

  /// Request 7's trace; empty, with a failure recorded, if it is missing.
  [[nodiscard]] Trace trace7() const {
    const flow::RequestRec* r = result_.find(7);
    if (r == nullptr) {
      ADD_FAILURE() << "request 7 not materialized";
      return Trace{};
    }
    return result_.trace(*r);
  }

  db::Database db_;
  flow::Result result_;
};

TEST_F(TraceFixture, ReconstructJoinsTiersOnId) {
  ASSERT_NE(result_.find(7), nullptr);
  const Trace trace = trace7();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.req_id, 7u);
  EXPECT_EQ(trace.spans[0].service, "apache");
  EXPECT_EQ(trace.spans[0].ua, msec(0));
  EXPECT_EQ(trace.spans[0].ud, msec(10));
  ASSERT_EQ(trace.spans[0].calls.size(), 1u);
  EXPECT_EQ(trace.spans[1].service, "tomcat");
  ASSERT_EQ(trace.spans[1].calls.size(), 2u);
  EXPECT_EQ(trace.spans[1].calls[1].second, msec(8));
  EXPECT_EQ(trace.response_time(), msec(10));
}

TEST_F(TraceFixture, ExclusiveTimeSubtractsCalls) {
  const Trace trace = trace7();
  ASSERT_EQ(trace.spans.size(), 2u);
  // apache: 10 - (9-1) = 2 ms; tomcat: 8 - (2 + 3) = 3 ms.
  EXPECT_EQ(trace.spans[0].exclusive_time(), msec(2));
  EXPECT_EQ(trace.spans[1].exclusive_time(), msec(3));
}

TEST_F(TraceFixture, UnknownIdGivesNullopt) {
  EXPECT_EQ(result_.find(999), nullptr);
}

TEST_F(TraceFixture, RequestIdsListsFrontTier) {
  // One request, joined across both tiers, its front span first.
  ASSERT_EQ(result_.requests.size(), 1u);
  const flow::RequestRec& r = result_.requests[0];
  EXPECT_EQ(r.req_id, 7u);
  EXPECT_TRUE(r.complete);
  ASSERT_EQ(r.span_end - r.span_begin, 2u);
  EXPECT_EQ(result_.spans[r.span_begin].tier, 0);
}

TEST_F(TraceFixture, RenderMentionsEveryTier) {
  const std::string text = render(trace7());
  EXPECT_NE(text.find("apache"), std::string::npos);
  EXPECT_NE(text.find("tomcat"), std::string::npos);
  EXPECT_NE(text.find("ID=000000000007"), std::string::npos);
}

TEST_F(TraceFixture, CompareWithTruthCountsMismatches) {
  const Trace trace = trace7();
  sim::Request truth;
  truth.id = 7;
  truth.records.resize(2);
  truth.records[0].visits.push_back(
      {msec(0), msec(10), {{msec(1), msec(9)}}});
  truth.records[1].visits.push_back(
      {msec(1), msec(9), {{msec(2), msec(4)}, {msec(5), msec(8)}}});
  EXPECT_EQ(compare_with_truth(trace, truth), 0);

  // Perturb one timestamp.
  truth.records[1].visits[0].downstream[1].second = msec(7);
  EXPECT_EQ(compare_with_truth(trace, truth), 1);

  // Remove a visit entirely.
  truth.records[1].visits.clear();
  EXPECT_GT(compare_with_truth(trace, truth), 0);
}

}  // namespace
}  // namespace mscope::core
