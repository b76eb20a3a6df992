/**
 * @file
 * Tests for the serving layer's request queue and dynamic batcher:
 * priority-then-FIFO ordering, close semantics (drain, don't drop),
 * and the batcher's packing invariants (1..maxBatch items, ordered,
 * never blocking once the first request arrived).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "serve/batcher.hh"
#include "serve/queue.hh"

namespace {

using namespace mflstm;
using namespace mflstm::serve;

QueuedRequest
makeItem(std::uint64_t seq, int priority = 0)
{
    QueuedRequest item;
    item.request.tokens = {1};
    item.request.priority = priority;
    item.id = seq + 1;
    item.seq = seq;
    item.enqueued = std::chrono::steady_clock::now();
    return item;
}

bool
admitted(RequestQueue &q, QueuedRequest item,
         std::vector<QueuedRequest> *bounced = nullptr)
{
    return q.push(std::move(item), bounced) ==
           RequestQueue::PushOutcome::Admitted;
}

TEST(RequestQueue, FifoWithinOnePriority)
{
    RequestQueue q;
    for (std::uint64_t s = 0; s < 5; ++s)
        ASSERT_TRUE(admitted(q, makeItem(s)));
    EXPECT_EQ(q.size(), 5u);

    for (std::uint64_t s = 0; s < 5; ++s) {
        QueuedRequest out;
        ASSERT_TRUE(q.popWait(out));
        EXPECT_EQ(out.seq, s);
    }
    EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, HigherPriorityDrainsFirst)
{
    RequestQueue q;
    ASSERT_TRUE(admitted(q, makeItem(0, 0)));
    ASSERT_TRUE(admitted(q, makeItem(1, 5)));
    ASSERT_TRUE(admitted(q, makeItem(2, 1)));
    ASSERT_TRUE(admitted(q, makeItem(3, 5)));

    QueuedRequest out;
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 1u);  // priority 5, earliest
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 3u);  // priority 5, later
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 2u);  // priority 1
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 0u);  // priority 0
}

TEST(RequestQueue, DrainRespectsLimitAndOrder)
{
    RequestQueue q;
    for (std::uint64_t s = 0; s < 6; ++s)
        ASSERT_TRUE(admitted(q, makeItem(s, s % 2 ? 1 : 0)));

    std::vector<QueuedRequest> out;
    EXPECT_EQ(q.drain(out, 4), 4u);
    ASSERT_EQ(out.size(), 4u);
    // Priority 1 items (seq 1, 3, 5) first, then the oldest priority 0.
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(out[1].seq, 3u);
    EXPECT_EQ(out[2].seq, 5u);
    EXPECT_EQ(out[3].seq, 0u);
    EXPECT_EQ(q.size(), 2u);

    EXPECT_EQ(q.drain(out, 10), 2u);
    EXPECT_EQ(q.drain(out, 10), 0u);  // empty: non-blocking no-op
}

TEST(RequestQueue, CloseRejectsPushesButDrainsRemainder)
{
    RequestQueue q;
    ASSERT_TRUE(admitted(q, makeItem(0)));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(admitted(q, makeItem(1)));

    QueuedRequest out;
    EXPECT_TRUE(q.popWait(out));  // queued work still drains
    EXPECT_EQ(out.seq, 0u);
    EXPECT_FALSE(q.popWait(out));  // closed and empty
}

TEST(RequestQueue, PopWaitWakesOnPush)
{
    RequestQueue q;
    QueuedRequest out;
    std::thread consumer([&] { ASSERT_TRUE(q.popWait(out)); });
    ASSERT_TRUE(admitted(q, makeItem(7)));
    consumer.join();
    EXPECT_EQ(out.seq, 7u);
}

TEST(RequestQueue, PopWaitWakesOnClose)
{
    RequestQueue q;
    bool got = true;
    std::thread consumer([&] {
        QueuedRequest out;
        got = q.popWait(out);
    });
    q.close();
    consumer.join();
    EXPECT_FALSE(got);
}

TEST(BoundedQueue, AdmissionPolicySpellingsRoundTrip)
{
    for (AdmissionPolicy p :
         {AdmissionPolicy::RejectNew, AdmissionPolicy::DropOldest,
          AdmissionPolicy::BlockWithTimeout})
        EXPECT_EQ(parseAdmissionPolicy(toString(p)), p) << toString(p);
    EXPECT_EQ(parseAdmissionPolicy("reject"), AdmissionPolicy::RejectNew);
    EXPECT_EQ(parseAdmissionPolicy("block"),
              AdmissionPolicy::BlockWithTimeout);
    EXPECT_EQ(parseAdmissionPolicy("?"), std::nullopt);
    EXPECT_EQ(parseAdmissionPolicy(""), std::nullopt);
}

TEST(BoundedQueue, RejectNewBouncesTheNewItemWhenFull)
{
    RequestQueue q({2, AdmissionPolicy::RejectNew, 5.0});
    ASSERT_TRUE(admitted(q, makeItem(0)));
    ASSERT_TRUE(admitted(q, makeItem(1)));

    std::vector<QueuedRequest> bounced;
    EXPECT_EQ(q.push(makeItem(2), &bounced),
              RequestQueue::PushOutcome::RejectedCapacity);
    ASSERT_EQ(bounced.size(), 1u);
    EXPECT_EQ(bounced[0].seq, 2u);  // the new item, not a queued one
    EXPECT_EQ(q.size(), 2u);

    const RequestQueue::Counters c = q.counters();
    EXPECT_EQ(c.admitted, 2u);
    EXPECT_EQ(c.rejected, 1u);
    EXPECT_EQ(c.evicted, 0u);
    EXPECT_EQ(c.highWater, 2u);
}

TEST(BoundedQueue, DropOldestEvictsMinimumSeqRegardlessOfPriority)
{
    RequestQueue q({2, AdmissionPolicy::DropOldest, 5.0});
    ASSERT_TRUE(admitted(q, makeItem(0, 9)));  // oldest, high priority
    ASSERT_TRUE(admitted(q, makeItem(1, 0)));

    std::vector<QueuedRequest> bounced;
    EXPECT_EQ(q.push(makeItem(2, 0), &bounced),
              RequestQueue::PushOutcome::Admitted);
    ASSERT_EQ(bounced.size(), 1u);
    EXPECT_EQ(bounced[0].seq, 0u);  // globally oldest was evicted
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.counters().evicted, 1u);

    // The survivors still drain in priority-then-FIFO order.
    QueuedRequest out;
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 1u);
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 2u);
}

TEST(BoundedQueue, BlockWithTimeoutTimesOutWhenNobodyPops)
{
    RequestQueue q({1, AdmissionPolicy::BlockWithTimeout, 2.0});
    ASSERT_TRUE(admitted(q, makeItem(0)));

    std::vector<QueuedRequest> bounced;
    EXPECT_EQ(q.push(makeItem(1), &bounced),
              RequestQueue::PushOutcome::RejectedCapacity);
    ASSERT_EQ(bounced.size(), 1u);
    EXPECT_EQ(bounced[0].seq, 1u);
    EXPECT_EQ(q.counters().rejected, 1u);
}

TEST(BoundedQueue, BlockWithTimeoutAdmitsWhenAConsumerFreesSpace)
{
    RequestQueue q({1, AdmissionPolicy::BlockWithTimeout, 60'000.0});
    ASSERT_TRUE(admitted(q, makeItem(0)));

    std::thread consumer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        QueuedRequest out;
        ASSERT_TRUE(q.popWait(out));
    });
    EXPECT_TRUE(admitted(q, makeItem(1)));  // blocked, then admitted
    consumer.join();
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, CloseWakesBlockedProducer)
{
    RequestQueue q({1, AdmissionPolicy::BlockWithTimeout, 60'000.0});
    ASSERT_TRUE(admitted(q, makeItem(0)));

    std::thread producer([&] {
        std::vector<QueuedRequest> bounced;
        EXPECT_EQ(q.push(makeItem(1), &bounced),
                  RequestQueue::PushOutcome::Closed);
        EXPECT_EQ(bounced.size(), 1u);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    producer.join();
}

TEST(BoundedQueue, ShedExpiredRemovesOnlyPastDeadlineItems)
{
    RequestQueue q;
    QueuedRequest stale = makeItem(0);
    stale.request.deadlineMs = 0.5;
    stale.enqueued = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
    QueuedRequest fresh = makeItem(1);
    fresh.request.deadlineMs = 60'000.0;
    QueuedRequest no_deadline = makeItem(2);  // deadlineMs = 0: exempt
    ASSERT_TRUE(admitted(q, std::move(stale)));
    ASSERT_TRUE(admitted(q, std::move(fresh)));
    ASSERT_TRUE(admitted(q, std::move(no_deadline)));

    std::vector<QueuedRequest> shed;
    EXPECT_EQ(q.shedExpired(std::chrono::steady_clock::now(), shed), 1u);
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].seq, 0u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.counters().shed, 1u);

    // The survivors still pop in order after the heap repair.
    QueuedRequest out;
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 1u);
    ASSERT_TRUE(q.popWait(out));
    EXPECT_EQ(out.seq, 2u);
}

TEST(DynamicBatcher, RejectsZeroBound)
{
    RequestQueue q;
    EXPECT_THROW(DynamicBatcher(q, 0), std::invalid_argument);
}

TEST(DynamicBatcher, PacksQueuedItemsUpToBound)
{
    RequestQueue q;
    DynamicBatcher b(q, 4);
    for (std::uint64_t s = 0; s < 6; ++s)
        ASSERT_TRUE(admitted(q, makeItem(s)));

    const auto first = b.nextBatch();
    ASSERT_EQ(first.size(), 4u);  // filled to the bound
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].seq, i);

    const auto second = b.nextBatch();
    ASSERT_EQ(second.size(), 2u);  // the remainder, no waiting
    EXPECT_EQ(second[0].seq, 4u);
    EXPECT_EQ(second[1].seq, 5u);
}

TEST(DynamicBatcher, SingleRequestLeavesAlone)
{
    RequestQueue q;
    DynamicBatcher b(q, 8);
    ASSERT_TRUE(admitted(q, makeItem(0)));
    const auto batch = b.nextBatch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].seq, 0u);
}

TEST(DynamicBatcher, BatchOrderedByPriorityThenFifo)
{
    RequestQueue q;
    DynamicBatcher b(q, 8);
    ASSERT_TRUE(admitted(q, makeItem(0, 0)));
    ASSERT_TRUE(admitted(q, makeItem(1, 9)));
    ASSERT_TRUE(admitted(q, makeItem(2, 9)));
    ASSERT_TRUE(admitted(q, makeItem(3, 4)));

    const auto batch = b.nextBatch();
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch[0].seq, 1u);
    EXPECT_EQ(batch[1].seq, 2u);
    EXPECT_EQ(batch[2].seq, 3u);
    EXPECT_EQ(batch[3].seq, 0u);
}

TEST(DynamicBatcher, EmptyBatchSignalsClosedQueue)
{
    RequestQueue q;
    DynamicBatcher b(q, 4);
    ASSERT_TRUE(admitted(q, makeItem(0)));
    q.close();
    EXPECT_EQ(b.nextBatch().size(), 1u);  // drains queued work first
    EXPECT_TRUE(b.nextBatch().empty());   // then signals shutdown
}

TEST(DynamicBatcher, ConcurrentProducersAllServed)
{
    RequestQueue q;
    DynamicBatcher b(q, 8);
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 50;

    std::vector<std::thread> producers;
    std::atomic<std::uint64_t> seq{0};
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            for (std::size_t i = 0; i < kPerProducer; ++i)
                ASSERT_TRUE(admitted(q, makeItem(seq.fetch_add(1))));
        });
    }

    std::size_t served = 0;
    while (served < kProducers * kPerProducer) {
        const auto batch = b.nextBatch();
        ASSERT_FALSE(batch.empty());
        ASSERT_LE(batch.size(), 8u);
        served += batch.size();
    }
    for (std::thread &t : producers)
        t.join();
    EXPECT_EQ(served, kProducers * kPerProducer);
}

} // namespace
