// The machine formats must be valid JSON documents (RFC 8259, checked with
// obs/json, the reader every artifact consumer uses) and carry the SARIF
// 2.1.0 required fields CI's code-scanning upload expects.
#include "ftlint/output.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ftlint {
namespace {

std::vector<Finding> sample_findings() {
  return {
      {"src/core/a.cpp", 12, "no-raw-io", "message with \"quotes\" and \\"},
      {"src/util/b.hpp", 3, "layering",
       "newline\nand tab\tand control \x01 chars"},
  };
}

TEST(Output, TextOneLinePerFinding) {
  const std::string text = to_text(sample_findings());
  EXPECT_NE(text.find("src/core/a.cpp:12: [no-raw-io] "), std::string::npos);
  EXPECT_NE(text.find("src/util/b.hpp:3: [layering] "), std::string::npos);
}

// Quotes, backslashes and control characters in a finding reach both JSON
// formats escaped, through the shared obs json_escape.
TEST(Output, JsonEscaping) {
  for (const std::string& doc :
       {to_json(sample_findings()), to_sarif(sample_findings())}) {
    EXPECT_NE(doc.find("message with \\\"quotes\\\" and \\\\\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("newline\\nand tab\\tand control \\u0001 chars"),
              std::string::npos)
        << doc;
  }
}

TEST(Output, JsonIsValidAndComplete) {
  const std::string doc = to_json(sample_findings());
  EXPECT_TRUE(ftsched::obs::parse_json(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"rule\": \"layering\""), std::string::npos);
  EXPECT_TRUE(ftsched::obs::parse_json(to_json({})).ok());
}

TEST(Output, SarifIsValidJsonWithRequiredFields) {
  const std::string doc = to_sarif(sample_findings());
  EXPECT_TRUE(ftsched::obs::parse_json(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"no-raw-io\""), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(doc.find("\"artifactLocation\""), std::string::npos);
  // The full rule catalog rides along as tool.driver.rules.
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_NE(doc.find("\"id\": \"" + std::string(rule.name) + "\""),
              std::string::npos)
        << rule.name;
  }
}

TEST(Output, SarifEmptyRunIsStillValid) {
  const std::string doc = to_sarif({});
  EXPECT_TRUE(ftsched::obs::parse_json(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"results\": []"), std::string::npos);
}

}  // namespace
}  // namespace ftlint
