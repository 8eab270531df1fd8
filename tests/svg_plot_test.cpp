#include "util/svg_plot.h"

#include <gtest/gtest.h>

#include "scratch_dir.h"
#include "oracle/xml.h"

namespace mscope::util {
namespace {

Series ramp(int n) {
  Series s;
  for (int i = 0; i < n; ++i) s.push_back({msec(i * 10), 1.0 * i});
  return s;
}

TEST(SvgPlot, RendersWellFormedXml) {
  SvgPlot plot({.title = "t<est> & co", .y_label = "y"});
  plot.add_line(ramp(50), "a");
  plot.add_steps(ramp(20), "b");
  plot.add_vspan(msec(100), msec(200));
  const std::string svg = plot.render();
  // Our own XML parser must accept the output.
  const auto doc = transform::xml_parse(svg);
  EXPECT_EQ(doc->name, "svg");
  // Two polylines (one per series).
  EXPECT_EQ(doc->children_named("polyline").size(), 2u);
  // Title is escaped, not raw.
  EXPECT_EQ(svg.find("t<est>"), std::string::npos);
  EXPECT_NE(svg.find("t&lt;est&gt; &amp; co"), std::string::npos);
}

TEST(SvgPlot, EmptySeriesStillRenders) {
  SvgPlot plot({.title = "empty"});
  plot.add_line({}, "nothing");
  const auto doc = transform::xml_parse(plot.render());
  EXPECT_EQ(doc->name, "svg");
}

TEST(SvgPlot, FixedYMaxClampsValues) {
  SvgPlot plot({.title = "clamped", .y_max = 10});
  Series s{{0, 5.0}, {msec(10), 100.0}};
  plot.add_line(s, "spiky");
  // No crash and valid output; the 100 is clamped into the viewport.
  const auto doc = transform::xml_parse(plot.render());
  EXPECT_EQ(doc->name, "svg");
}

TEST(SvgPlot, RejectsTinyCanvas) {
  EXPECT_THROW(SvgPlot({.width = 10, .height = 10}), std::invalid_argument);
}

TEST(SvgPlot, SavesToDisk) {
  const mscope::test::ScratchDir dir("svg");
  const auto path = dir.path() / "plot.svg";
  SvgPlot plot({.title = "file"});
  plot.add_line(ramp(5), "x");
  plot.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_GT(std::filesystem::file_size(path), 500u);
}

TEST(SvgPlot, StepSeriesHasMorePoints) {
  // A step line inserts one extra vertex per segment.
  SvgPlot line_plot({.title = "l"});
  line_plot.add_line(ramp(10), "l");
  SvgPlot step_plot({.title = "s"});
  step_plot.add_steps(ramp(10), "s");
  const auto count_points = [](const std::string& svg) {
    const auto pos = svg.find("points=\"");
    const auto end = svg.find('"', pos + 8);
    std::size_t commas = 0;
    for (std::size_t i = pos; i < end; ++i) {
      if (svg[i] == ',') ++commas;
    }
    return commas;
  };
  EXPECT_GT(count_points(step_plot.render()),
            count_points(line_plot.render()));
}

}  // namespace
}  // namespace mscope::util
