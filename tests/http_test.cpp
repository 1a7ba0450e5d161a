// HTTP layer tests: incremental parsing under arbitrary TCP segmentation
// (property test), header handling, keep-alive semantics, malformed input,
// and serializer round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "http/http.hpp"

namespace sledge::http {
namespace {

const char kSimpleRequest[] =
    "POST /fib HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Length: 5\r\n"
    "Connection: keep-alive\r\n"
    "\r\n"
    "hello";

TEST(RequestParserTest, ParsesWholeRequest) {
  RequestParser p;
  int used = p.feed(kSimpleRequest, sizeof(kSimpleRequest) - 1);
  ASSERT_EQ(used, static_cast<int>(sizeof(kSimpleRequest) - 1));
  ASSERT_TRUE(p.done());
  Request& r = p.request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.target, "/fib");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.headers.at("host"), "localhost");
  EXPECT_EQ(r.body, (std::vector<uint8_t>{'h', 'e', 'l', 'l', 'o'}));
  EXPECT_TRUE(r.keep_alive());
}

TEST(RequestParserTest, ByteAtATime) {
  RequestParser p;
  const char* s = kSimpleRequest;
  for (size_t i = 0; i < sizeof(kSimpleRequest) - 1; ++i) {
    int used = p.feed(s + i, 1);
    ASSERT_GE(used, 0) << "at byte " << i;
  }
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().body.size(), 5u);
}

// Property: any segmentation of the byte stream parses identically.
TEST(RequestParserTest, PropertyRandomSegmentation) {
  std::string req = "POST /echo HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
  std::string body(1000, 'x');
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>('a' + i % 26);
  req += body;

  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    RequestParser p;
    size_t pos = 0;
    while (pos < req.size()) {
      size_t chunk = 1 + rng.below(200);
      if (pos + chunk > req.size()) chunk = req.size() - pos;
      size_t chunk_pos = 0;
      while (chunk_pos < chunk) {
        int used = p.feed(req.data() + pos + chunk_pos, chunk - chunk_pos);
        ASSERT_GE(used, 0);
        ASSERT_GT(used, 0);  // must always make progress
        chunk_pos += static_cast<size_t>(used);
      }
      pos += chunk;
    }
    ASSERT_TRUE(p.done()) << "trial " << trial;
    EXPECT_EQ(p.request().body.size(), 1000u);
    EXPECT_EQ(std::string(p.request().body.begin(), p.request().body.end()),
              body);
  }
}

TEST(RequestParserTest, NoBodyWithoutContentLength) {
  RequestParser p;
  const char req[] = "GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
  p.feed(req, sizeof(req) - 1);
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.request().body.empty());
}

TEST(RequestParserTest, ConsumesOnlyItsRequest) {
  // Two pipelined requests: the parser must stop at the first boundary.
  std::string two = "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nXY";
  std::string second = "POST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  std::string all = two + second;
  RequestParser p;
  int used = p.feed(all.data(), all.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(used, static_cast<int>(two.size()));
  p.reset();
  used = p.feed(all.data() + two.size(), second.size());
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().target, "/b");
}

TEST(RequestParserTest, MalformedRequestLine) {
  for (const char* bad : {"GARBAGE\r\n\r\n", "POST\r\n\r\n",
                          "POST /x\r\n\r\n", "POST /x FTP/9\r\n\r\n"}) {
    RequestParser p;
    int used = p.feed(bad, strlen(bad));
    EXPECT_TRUE(used < 0 || p.failed()) << bad;
  }
}

TEST(RequestParserTest, MalformedHeaderLine) {
  RequestParser p;
  const char req[] = "POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n";
  int used = p.feed(req, sizeof(req) - 1);
  EXPECT_TRUE(used < 0 || p.failed());
}

TEST(RequestParserTest, BadContentLength) {
  RequestParser p;
  const char req[] = "POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n";
  int used = p.feed(req, sizeof(req) - 1);
  EXPECT_TRUE(used < 0 || p.failed());
}

TEST(RequestParserTest, OversizedHeadersRejected) {
  RequestParser p;
  std::string req = "POST /x HTTP/1.1\r\n";
  req += "X-Long: " + std::string(RequestParser::kMaxHeaderBytes, 'a');
  int used = p.feed(req.data(), req.size());
  EXPECT_TRUE(used < 0 || p.failed());
}

TEST(RequestParserTest, OversizedBodyRejected) {
  RequestParser p;
  std::string req =
      "POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
  int used = p.feed(req.data(), req.size());
  EXPECT_TRUE(used < 0 || p.failed());
}

TEST(RequestParserTest, KeepAliveDefaults) {
  {
    RequestParser p;
    const char req[] = "POST /x HTTP/1.1\r\n\r\n";
    p.feed(req, sizeof(req) - 1);
    ASSERT_TRUE(p.done());
    EXPECT_TRUE(p.request().keep_alive());  // 1.1 default
  }
  {
    RequestParser p;
    const char req[] = "POST /x HTTP/1.0\r\n\r\n";
    p.feed(req, sizeof(req) - 1);
    ASSERT_TRUE(p.done());
    EXPECT_FALSE(p.request().keep_alive());  // 1.0 default
  }
  {
    RequestParser p;
    const char req[] = "POST /x HTTP/1.1\r\nConnection: close\r\n\r\n";
    p.feed(req, sizeof(req) - 1);
    ASSERT_TRUE(p.done());
    EXPECT_FALSE(p.request().keep_alive());
  }
}

TEST(RequestParserTest, HeaderKeysLowercasedValuesTrimmed) {
  RequestParser p;
  const char req[] = "POST /x HTTP/1.1\r\nX-FOO:   Bar Baz  \r\n\r\n";
  p.feed(req, sizeof(req) - 1);
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().headers.at("x-foo"), "Bar Baz");
}

// ---- Strict Content-Length (table-driven) ----
//
// strtoull was too lax: it accepted empty values, leading whitespace and
// +/- signs ("-1" wrapped past the body cap). Only all-digit values parse.

TEST(RequestParserTest, ContentLengthStrictTable) {
  struct Case {
    const char* value;
    bool ok;
    size_t body_len;  // only meaningful when ok
  };
  const Case cases[] = {
      {"5", true, 5},
      {"0", true, 0},
      {"007", true, 7},  // leading zeros are still all-digit
      {"", false, 0},
      {"+5", false, 0},
      {"-1", false, 0},
      {"-5", false, 0},
      {" 5", true, 5},   // header value trim eats surrounding whitespace
      {"5 ", true, 5},
      {"5x", false, 0},
      {"x5", false, 0},
      {"4 2", false, 0},
      {"0x10", false, 0},
      {"5\t", true, 5},  // trailing tab trimmed with the header value
      {"99999999999999999999999999", false, 0},  // uint64 overflow
      {"18446744073709551615", false, 0},        // UINT64_MAX > body cap
  };
  for (const Case& c : cases) {
    RequestParser p;
    std::string req = "POST /x HTTP/1.1\r\nContent-Length: " +
                      std::string(c.value) + "\r\n\r\n";
    std::string body(c.ok ? c.body_len : 0, 'b');
    req += body;
    int used = p.feed(req.data(), req.size());
    if (c.ok) {
      ASSERT_GE(used, 0) << "value '" << c.value << "'";
      ASSERT_TRUE(p.done()) << "value '" << c.value << "'";
      EXPECT_EQ(p.request().body.size(), c.body_len)
          << "value '" << c.value << "'";
    } else {
      EXPECT_TRUE(used < 0 && p.failed()) << "value '" << c.value << "'";
    }
  }
}

TEST(RequestParserTest, DuplicateContentLengthDistinctRejected) {
  // Two distinct Content-Length values = request smuggling vector; the old
  // header map silently kept the last one.
  RequestParser p;
  const char req[] =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n";
  int used = p.feed(req, sizeof(req) - 1);
  EXPECT_TRUE(used < 0 && p.failed());
}

TEST(RequestParserTest, DuplicateContentLengthSameValueAccepted) {
  RequestParser p;
  const char req[] =
      "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nXY";
  int used = p.feed(req, sizeof(req) - 1);
  ASSERT_EQ(used, static_cast<int>(sizeof(req) - 1));
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().body.size(), 2u);
}

// ---- Chunked transfer encoding: framed-and-discarded ----
//
// The parser walks the chunk framing to find the request boundary (so the
// byte stream stays in sync for pipelined successors) but stores no body;
// done() + chunked() tells the server to answer 501.

TEST(RequestParserTest, ChunkedFramedAndFlagged) {
  RequestParser p;
  const char req[] =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";
  int used = p.feed(req, sizeof(req) - 1);
  ASSERT_EQ(used, static_cast<int>(sizeof(req) - 1));
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.chunked());
  EXPECT_TRUE(p.request().body.empty());  // discarded, not stored
}

TEST(RequestParserTest, ChunkedStopsAtBoundaryBeforePipelinedRequest) {
  // The old parser ignored Transfer-Encoding, treated the body as empty,
  // and re-parsed the chunk bytes as the *next* request (garbage 400 or a
  // smuggled request). The framing walk must stop exactly at the boundary.
  std::string chunked =
      "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  std::string next = "POST /b HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  std::string all = chunked + next;
  RequestParser p;
  int used = p.feed(all.data(), all.size());
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.chunked());
  ASSERT_EQ(used, static_cast<int>(chunked.size()));
  p.reset();
  EXPECT_FALSE(p.chunked());  // reset clears the flag
  used = p.feed(all.data() + chunked.size(), next.size());
  ASSERT_TRUE(p.done());
  EXPECT_FALSE(p.chunked());
  EXPECT_EQ(p.request().target, "/b");
}

TEST(RequestParserTest, ChunkedByteAtATimeWithExtensionsAndTrailers) {
  const char req[] =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=1\r\nWiki\r\n0\r\nTrailer: v\r\n\r\n";
  RequestParser p;
  for (size_t i = 0; i < sizeof(req) - 1; ++i) {
    int used = p.feed(req + i, 1);
    ASSERT_GE(used, 0) << "at byte " << i;
  }
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.chunked());
}

TEST(RequestParserTest, ChunkedTakesPrecedenceOverContentLength) {
  // RFC 7230: Transfer-Encoding wins; honoring both is a smuggling vector.
  const char req[] =
      "POST /x HTTP/1.1\r\nContent-Length: 100\r\n"
      "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
  RequestParser p;
  int used = p.feed(req, sizeof(req) - 1);
  ASSERT_EQ(used, static_cast<int>(sizeof(req) - 1));
  ASSERT_TRUE(p.done());
  EXPECT_TRUE(p.chunked());
}

TEST(RequestParserTest, ChunkedMalformedFraming) {
  for (const char* tail :
       {"Z\r\n",                // non-hex size
        "\r\n",                 // empty size line
        "3\r\nabcX",            // bad chunk terminator
        "ffffffffffffffff1\r\n"  // size overflow
       }) {
    RequestParser p;
    std::string req =
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    req += tail;
    int used = p.feed(req.data(), req.size());
    EXPECT_TRUE(used < 0 && p.failed()) << "tail: " << tail;
  }
}

TEST(RequestParserTest, UnsupportedTransferEncodingRejected) {
  RequestParser p;
  const char req[] = "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
  int used = p.feed(req, sizeof(req) - 1);
  EXPECT_TRUE(used < 0 && p.failed());
}

// ---- Seeded framing property-fuzz ----
//
// Randomized pipelined streams — Content-Length bodies of arbitrary size,
// duplicate same-value Content-Length, chunked requests with extensions and
// trailers, noise headers — fed at random split points. The contract the
// front door depends on: the parser reports every request exactly once, in
// order, with byte-exact bodies, and always makes progress (a stall would
// wedge a keep-alive connection forever).

TEST(RequestParserTest, PropertyFuzzPipelinedFramingNeverDropsOrDuplicates) {
  struct Expected {
    std::string target;
    std::string body;  // empty for chunked (framed-and-discarded)
    bool chunked = false;
  };
  for (uint64_t seed : {1ull, 42ull, 777ull, 0xD00Dull}) {
    Rng rng(seed);
    for (int trial = 0; trial < 30; ++trial) {
      // Build a pipelined stream of 1..8 requests and its expected parse.
      std::string stream;
      std::vector<Expected> expected;
      int nreq = 1 + static_cast<int>(rng.below(8));
      for (int i = 0; i < nreq; ++i) {
        Expected e;
        e.target = "/m" + std::to_string(rng.below(10));
        std::string req = "POST " + e.target + " HTTP/1.1\r\n";
        if (rng.chance(0.3)) req += "X-Noise: n" +
                                    std::to_string(rng.below(100)) + "\r\n";
        if (rng.chance(0.3)) {
          // Chunked: random chunk sizes, optional extension and trailer.
          e.chunked = true;
          req += "Transfer-Encoding: chunked\r\n\r\n";
          int chunks = static_cast<int>(rng.below(4));
          for (int c = 0; c < chunks; ++c) {
            size_t len = 1 + rng.below(300);
            char hex[16];
            std::snprintf(hex, sizeof(hex), "%zx", len);
            req += hex;
            if (rng.chance(0.3)) req += ";ext=v";
            req += "\r\n" + std::string(len, static_cast<char>('a' + c)) +
                   "\r\n";
          }
          req += "0\r\n";
          if (rng.chance(0.3)) req += "Trailer: t\r\n";
          req += "\r\n";
        } else {
          size_t len = rng.below(2000);
          e.body.resize(len);
          for (char& ch : e.body) {
            ch = static_cast<char>(rng.below(256));
          }
          std::string cl = "Content-Length: " + std::to_string(len) + "\r\n";
          req += cl;
          if (rng.chance(0.2)) req += cl;  // duplicate, same value: legal
          req += "\r\n" + e.body;
        }
        stream += req;
        expected.push_back(std::move(e));
      }

      // Feed at random split points; harvest at each request boundary.
      std::vector<Expected> got;
      RequestParser p;
      size_t pos = 0;
      while (pos < stream.size()) {
        size_t chunk = 1 + rng.below(333);
        if (pos + chunk > stream.size()) chunk = stream.size() - pos;
        size_t off = 0;
        while (off < chunk) {
          int used = p.feed(stream.data() + pos + off, chunk - off);
          ASSERT_GT(used, 0) << "seed " << seed << " trial " << trial
                             << " stalled at byte " << pos + off;
          off += static_cast<size_t>(used);
          if (p.done()) {
            Expected e;
            e.target = p.request().target;
            e.body.assign(p.request().body.begin(), p.request().body.end());
            e.chunked = p.chunked();
            got.push_back(std::move(e));
            p.reset();
          }
        }
        pos += chunk;
      }

      ASSERT_EQ(got.size(), expected.size())
          << "seed " << seed << " trial " << trial;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].target, expected[i].target) << "request " << i;
        EXPECT_EQ(got[i].chunked, expected[i].chunked) << "request " << i;
        EXPECT_EQ(got[i].body, expected[i].body) << "request " << i;
      }
    }
  }
}

// The same property for malformed tails: any number of well-formed
// pipelined requests followed by a malformed one (smuggling-shaped
// Content-Length, bogus transfer coding, broken chunk framing). Every
// prefix request parses exactly once; the malformed request must fail —
// never be silently reported done — under any segmentation.
TEST(RequestParserTest, PropertyFuzzMalformedTailAlwaysFails) {
  const char* kMalformed[] = {
      "POST /x HTTP/1.1\r\nContent-Length: 5x\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nZ\r\n",
      "POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
  };
  Rng rng(0xBAD5EED);
  for (int trial = 0; trial < 120; ++trial) {
    std::string stream;
    int nprefix = static_cast<int>(rng.below(4));
    for (int i = 0; i < nprefix; ++i) {
      size_t len = rng.below(50);
      stream += "POST /ok HTTP/1.1\r\nContent-Length: " +
                std::to_string(len) + "\r\n\r\n" + std::string(len, 'k');
    }
    stream += kMalformed[rng.below(sizeof(kMalformed) / sizeof(char*))];

    RequestParser p;
    int parsed_ok = 0;
    bool saw_failure = false;
    size_t pos = 0;
    while (pos < stream.size() && !saw_failure) {
      size_t chunk = 1 + rng.below(64);
      if (pos + chunk > stream.size()) chunk = stream.size() - pos;
      size_t off = 0;
      while (off < chunk) {
        int used = p.feed(stream.data() + pos + off, chunk - off);
        if (used < 0 || p.failed()) {
          saw_failure = true;
          break;
        }
        ASSERT_GT(used, 0);
        off += static_cast<size_t>(used);
        if (p.done()) {
          EXPECT_EQ(p.request().target, "/ok");
          ++parsed_ok;
          p.reset();
        }
      }
      pos += chunk;
    }
    EXPECT_TRUE(saw_failure) << "trial " << trial;
    EXPECT_EQ(parsed_ok, nprefix) << "trial " << trial;
  }
}

TEST(SerializerTest, HeaderOnlySerializerMatchesFullResponse) {
  // The writev fast path sends serialize_response_header + body iovecs; the
  // concatenation must be byte-identical to the legacy full serializer.
  std::vector<uint8_t> body = {'a', 'b', 'c'};
  std::string full =
      serialize_response(200, "OK", body, true, "text/plain", "X-A: 1\r\n");
  std::string header = serialize_response_header(200, "OK", body.size(), true,
                                                 "text/plain", "X-A: 1\r\n");
  EXPECT_EQ(full, header + "abc");
}

TEST(SerializerTest, ResponseRoundTrip) {
  std::vector<uint8_t> body = {1, 2, 3};
  std::string resp = serialize_response(200, "OK", body, true);
  EXPECT_NE(resp.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(resp.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(resp.substr(resp.size() - 3), std::string("\x01\x02\x03", 3));
}

TEST(SerializerTest, RequestParsesBack) {
  std::vector<uint8_t> body = {'p', 'q'};
  std::string req = serialize_request("POST", "/mod", body, false, "h");
  RequestParser p;
  int used = p.feed(req.data(), req.size());
  ASSERT_EQ(used, static_cast<int>(req.size()));
  ASSERT_TRUE(p.done());
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().target, "/mod");
  EXPECT_EQ(p.request().body, body);
  EXPECT_FALSE(p.request().keep_alive());
}

}  // namespace
}  // namespace sledge::http
