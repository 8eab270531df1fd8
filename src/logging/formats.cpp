#include "logging/formats.h"

#include <cstdio>

#include "util/id_codec.h"
#include "util/strings.h"
#include "util/time_format.h"

namespace mscope::logging::formats {

using util::IdCodec;
using util::TimeFormat;

std::string apache_access(const ApacheRecord& r) {
  std::string url = r.url;
  if (r.instrumented) url = IdCodec::tag_url(url, r.id);
  std::string line;
  line.reserve(256);
  line += "10.0.0.2 - - ";
  line += TimeFormat::apache_clf(r.ua);
  line += " \"GET ";
  line += url;
  line += " HTTP/1.1\" ";
  line += std::to_string(r.status);
  line += ' ';
  line += std::to_string(r.bytes);
  line += ' ';
  line += std::to_string(r.ud - r.ua);  // %D: duration in usec
  if (r.instrumented) {
    line += " ua=";
    TimeFormat::append_usec(line, r.ua);
    line += " ud=";
    TimeFormat::append_usec(line, r.ud);
    line += " ds=";
    TimeFormat::append_usec(line, r.ds);
    line += " dr=";
    TimeFormat::append_usec(line, r.dr);
  }
  return line;
}

std::string tomcat_monitor(const TomcatRecord& r) {
  std::string line;
  line.reserve(192 + r.calls.size() * 48);
  line += TimeFormat::mysql(r.ua);
  line += " [mscope] ID=";
  line += IdCodec::encode(r.id);
  line += " servlet=";
  line += r.servlet;
  line += " ua=";
  TimeFormat::append_usec(line, r.ua);
  line += " ud=";
  TimeFormat::append_usec(line, r.ud);
  line += " calls=";
  line += std::to_string(r.calls.size());
  for (std::size_t i = 0; i < r.calls.size(); ++i) {
    line += " ds";
    line += std::to_string(i);
    line += '=';
    TimeFormat::append_usec(line, r.calls[i].first);
    line += " dr";
    line += std::to_string(i);
    line += '=';
    TimeFormat::append_usec(line, r.calls[i].second);
  }
  return line;
}

std::string tomcat_baseline(const TomcatRecord& r) {
  // Unmodified Tomcat access-log (common format, seconds granularity).
  std::string line;
  line.reserve(128);
  line += "10.0.0.1 - - ";
  line += TimeFormat::apache_clf(r.ua);
  line += " \"GET ";
  line += r.servlet;
  line += " HTTP/1.1\" 200 -";
  return line;
}

std::string cjdbc_log(const CjdbcRecord& r) {
  std::string line;
  line.reserve(224);
  line += '[';
  line += TimeFormat::hms_milli(r.ua);
  line += "] ";
  if (r.instrumented) {
    line += "ID=";
    line += IdCodec::encode(r.id);
    line += " vq=";
    line += std::to_string(r.visit);
    line += " ua=";
    TimeFormat::append_usec(line, r.ua);
    line += " ud=";
    TimeFormat::append_usec(line, r.ud);
    line += " ds=";
    TimeFormat::append_usec(line, r.ds);
    line += " dr=";
    TimeFormat::append_usec(line, r.dr);
    line += ' ';
  }
  line += "sql=\"";
  line += r.sql;
  line += '"';
  return line;
}

std::string mysql_general(const MysqlRecord& r) {
  std::string sql = r.sql;
  if (r.instrumented) sql = IdCodec::tag_sql(sql, r.id);
  std::string line;
  line.reserve(224);
  line += TimeFormat::mysql(r.ua);
  line += '\t';
  line += std::to_string(r.thread_id);
  line += " Query\t";
  line += sql;
  if (r.instrumented) {
    line += " # ua=";
    TimeFormat::append_usec(line, r.ua);
    line += " ud=";
    TimeFormat::append_usec(line, r.ud);
    line += " vq=";
    line += std::to_string(r.visit);
  }
  return line;
}

// --------------------------- resource formats -----------------------------

std::string sar_text_banner(std::string_view node, int cores) {
  std::string out = "Linux 3.10.0-mscope (";
  out += node;
  out += ")\t01/01/2017\t_x86_64_\t(";
  out += std::to_string(cores);
  out += " CPU)\n\n";
  return out;
}

std::string sar_text_cpu_header(SimTime t) {
  return TimeFormat::hms_milli(t) +
         "     CPU     %user     %nice   %system   %iowait    %steal     "
         "%idle";
}

std::string sar_text_cpu_row(const CpuRow& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s     all%10.2f%10.2f%10.2f%10.2f%10.2f%10.2f",
                TimeFormat::hms_milli(r.t).c_str(), r.user * 100, 0.0,
                r.system * 100, r.iowait * 100, 0.0, r.idle * 100);
  return buf;
}

std::string sar_xml_open(std::string_view node, int cores) {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<sysstat>\n";
  out += " <host nodename=\"";
  out += util::xml_escape(node);
  out += "\" cpu-count=\"";
  out += std::to_string(cores);
  out += "\">\n  <statistics>\n";
  return out;
}

std::string sar_xml_cpu_timestamp(const CpuRow& r) {
  std::string out = "   <timestamp date=\"2017-01-01\" time=\"";
  out += TimeFormat::hms_milli(r.t);
  out += "\">\n    <cpu-load>\n     <cpu number=\"all\" user=\"";
  out += util::fmt_double(r.user * 100, 2);
  out += "\" nice=\"0.00\" system=\"";
  out += util::fmt_double(r.system * 100, 2);
  out += "\" iowait=\"";
  out += util::fmt_double(r.iowait * 100, 2);
  out += "\" steal=\"0.00\" idle=\"";
  out += util::fmt_double(r.idle * 100, 2);
  out += "\"/>\n    </cpu-load>\n   </timestamp>\n";
  return out;
}

std::string sar_xml_close() { return "  </statistics>\n </host>\n</sysstat>\n"; }

std::string iostat_banner(std::string_view node, int cores) {
  std::string out = "Linux 3.10.0-mscope (";
  out += node;
  out += ")\t01/01/2017\t_x86_64_\t(";
  out += std::to_string(cores);
  out += " CPU)\n\n";
  return out;
}

std::string iostat_block(std::string_view device, const DiskRow& r) {
  char buf[256];
  std::string out = TimeFormat::hms_milli(r.t);
  out +=
      "\nDevice:            tps    kB_read/s    kB_wrtn/s   avgqu-sz    "
      "%util\n";
  std::snprintf(buf, sizeof(buf), "%-12s%10.2f%13.2f%13.2f%11d%9.2f\n\n",
                std::string(device).c_str(), r.tps, r.read_kbs, r.write_kbs,
                r.queue, r.util * 100);
  out += buf;
  return out;
}

std::string collectl_csv_header() {
  return "#Date,Time,[CPU]User%,[CPU]Sys%,[CPU]Wait%,[CPU]Idle%,"
         "[MEM]DirtyKB,[MEM]CachedKB,[DSK]ReadKBTot,[DSK]WriteKBTot,"
         "[DSK]PctUtil,[DSK]QueLen";
}

std::string collectl_csv_row(const CpuRow& c, const DiskRow& d,
                             const MemRow& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "20170101,%s,%.1f,%.1f,%.1f,%.1f,%lld,%lld,%.1f,%.1f,%.1f,%d",
                TimeFormat::hms_milli(c.t).c_str(), c.user * 100,
                c.system * 100, c.iowait * 100, c.idle * 100,
                static_cast<long long>(m.dirty_kb),
                static_cast<long long>(m.cached_kb), d.read_kbs, d.write_kbs,
                d.util * 100, d.queue);
  return buf;
}

std::string collectl_plain_header() {
  return "#<--------CPU--------><-----------Disks----------->\n"
         "#Time         User% Sys% Wait% KBRead KBWrit PctUtil";
}

std::string collectl_plain_row(const CpuRow& c, const DiskRow& d) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %5.1f %4.1f %5.1f %6.0f %6.0f %7.1f",
                TimeFormat::hms_milli(c.t).c_str(), c.user * 100,
                c.system * 100, c.iowait * 100, d.read_kbs, d.write_kbs,
                d.util * 100);
  return buf;
}

}  // namespace mscope::logging::formats
