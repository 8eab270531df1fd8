#include "transform/declaration.h"

namespace mscope::transform {

namespace {

Declaration apache_decl() {
  Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "apache_access.log";
  d.source = "apache";
  d.table_prefix = "ev_apache";
  d.monitor_name = "Apache mScopeMonitor";
  // Instrumented line first; unmodified access-log line as fallback.
  d.tokens.push_back(
      {R"re(^(\S+) \S+ \S+ (\[[^\]]+\]) "(\S+) (\S*ID=([0-9A-F]{12})\S*) HTTP[^"]*" (\d+) (\d+) (\d+) ua=(\d+) ud=(\d+) ds=(\d+) dr=(\d+)$)re",
       {"client", "ts", "method", "url", "req_id", "status", "bytes",
        "duration_usec", "ua", "ud", "ds", "dr"}});
  d.tokens.push_back(
      {R"re(^(\S+) \S+ \S+ (\[[^\]]+\]) "(\S+) (\S+) HTTP[^"]*" (\d+) (\d+) (\d+)$)re",
       {"client", "ts", "method", "url", "status", "bytes", "duration_usec"}});
  d.time_fields = {{"ts", TimeEncoding::kApacheClf},
                   {"ua", TimeEncoding::kEpochUsec},
                   {"ud", TimeEncoding::kEpochUsec},
                   {"ds", TimeEncoding::kEpochUsec},
                   {"dr", TimeEncoding::kEpochUsec}};
  return d;
}

Declaration tomcat_decl() {
  Declaration d;
  d.parser_id = "tomcat";
  d.file_name = "tomcat_mscope.log";
  d.source = "tomcat";
  d.table_prefix = "ev_tomcat";
  d.monitor_name = "Tomcat mScopeMonitor";
  d.tokens.push_back(
      {R"re(^(\d{4}-\d{2}-\d{2} [0-9:.]+) \[mscope\] ID=([0-9A-F]{12}) servlet=(\S+) ua=(\d+) ud=(\d+) calls=(\d+))re",
       {"ts", "req_id", "servlet", "ua", "ud", "calls"}});
  // Baseline Tomcat access log (unmodified server).
  d.tokens.push_back(
      {R"re(^(\S+) \S+ \S+ (\[[^\]]+\]) "(\S+) (\S+) HTTP[^"]*" (\d+) .*$)re",
       {"client", "ts_clf", "method", "url", "status"}});
  d.time_fields = {{"ts", TimeEncoding::kMysqlDateTime},
                   {"ts_clf", TimeEncoding::kApacheClf},
                   {"ua", TimeEncoding::kEpochUsec},
                   {"ud", TimeEncoding::kEpochUsec}};
  return d;
}

Declaration cjdbc_decl() {
  Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "cjdbc_controller.log";
  d.source = "cjdbc";
  d.table_prefix = "ev_cjdbc";
  d.monitor_name = "C-JDBC mScopeMonitor";
  d.tokens.push_back(
      {R"re(^\[([0-9:.]+)\] ID=([0-9A-F]{12}) vq=(\d+) ua=(\d+) ud=(\d+) ds=(\d+) dr=(\d+) sql="(.*)"$)re",
       {"ts", "req_id", "visit", "ua", "ud", "ds", "dr", "sql"}});
  d.tokens.push_back({R"re(^\[([0-9:.]+)\] sql="(.*)"$)re", {"ts", "sql"}});
  d.time_fields = {{"ts", TimeEncoding::kHmsMilli},
                   {"ua", TimeEncoding::kEpochUsec},
                   {"ud", TimeEncoding::kEpochUsec},
                   {"ds", TimeEncoding::kEpochUsec},
                   {"dr", TimeEncoding::kEpochUsec}};
  return d;
}

Declaration mysql_decl() {
  Declaration d;
  d.parser_id = "token_lines";
  d.file_name = "mysql_general.log";
  d.source = "mysql";
  d.table_prefix = "ev_mysql";
  d.monitor_name = "MySQL mScopeMonitor";
  d.tokens.push_back(
      {R"re(^(\d{4}-\d{2}-\d{2} [0-9:.]+)\t\s*(\d+) Query\t(.*) /\*ID=([0-9A-F]{12})\*/ # ua=(\d+) ud=(\d+) vq=(\d+)$)re",
       {"ts", "thread_id", "sql", "req_id", "ua", "ud", "visit"}});
  d.time_fields = {{"ts", TimeEncoding::kMysqlDateTime},
                   {"ua", TimeEncoding::kEpochUsec},
                   {"ud", TimeEncoding::kEpochUsec}};
  return d;
}

Declaration sar_text_decl() {
  Declaration d;
  // The paper's original path: a customized SAR parser, because the generic
  // line/token instructions were insufficient (Section III-B.2).
  d.parser_id = "sar_text";
  d.file_name = "sar_cpu.log";
  d.source = "sar";
  d.table_prefix = "res_sar_cpu";
  d.monitor_name = "SAR mScopeMonitor (text)";
  return d;
}

Declaration sar_xml_decl() {
  Declaration d;
  // The upgraded path: SAR emits XML directly, read by the sar XML scanner.
  d.parser_id = "sar_xml";
  d.file_name = "sar_cpu.xml";
  d.source = "sar";
  d.table_prefix = "res_sarxml_cpu";
  d.monitor_name = "SAR mScopeMonitor (XML)";
  return d;
}

Declaration iostat_decl() {
  Declaration d;
  d.parser_id = "iostat";
  d.file_name = "iostat.log";
  d.source = "iostat";
  d.table_prefix = "res_iostat";
  d.monitor_name = "IOstat mScopeMonitor";
  d.skip_lines = 2;  // banner + blank
  return d;
}

Declaration collectl_csv_decl() {
  Declaration d;
  d.parser_id = "collectl_csv";
  d.file_name = "collectl.csv";
  d.source = "collectl";
  d.table_prefix = "res_collectl";
  d.monitor_name = "Collectl mScopeMonitor (csv)";
  d.comment_prefix = "#";  // header line carries the schema
  return d;
}

Declaration collectl_plain_decl() {
  Declaration d;
  d.parser_id = "collectl_plain";
  d.file_name = "collectl.log";
  d.source = "collectl";
  d.table_prefix = "res_collectlp";
  d.monitor_name = "Collectl mScopeMonitor (plain)";
  return d;
}

}  // namespace

DeclarationRegistry::DeclarationRegistry() {
  add(apache_decl());
  add(tomcat_decl());
  add(cjdbc_decl());
  add(mysql_decl());
  add(sar_text_decl());
  add(sar_xml_decl());
  add(iostat_decl());
  add(collectl_csv_decl());
  add(collectl_plain_decl());
}

const Declaration* DeclarationRegistry::match(
    const std::string& file_name) const {
  for (const auto& d : declarations_) {
    if (d.file_name == file_name) return &d;
  }
  return nullptr;
}

}  // namespace mscope::transform
